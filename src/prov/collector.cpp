#include "prov/collector.hpp"

#include <algorithm>
#include <bit>

#include "mem/addr.hpp"
#include "stats/counters.hpp"

namespace asfsim::prov {

namespace {

// Byte offset that names the victim's side of the conflict: the first
// overlapping byte when there is true overlap (the actual collision),
// otherwise the victim's first relevant byte (pure false sharing — probe
// and victim bytes are disjoint objects in the same line).
std::uint32_t victim_offset(ByteMask probe, ByteMask victim) {
  const ByteMask overlap = probe & victim;
  const ByteMask pick = overlap != 0 ? overlap : victim;
  if (pick == 0) return 0;
  return static_cast<std::uint32_t>(std::countr_zero(pick));
}

}  // namespace

ProvCollector::ProvCollector(const SiteRegistry& sites, std::uint32_t nsub)
    : sites_(sites), nsub_(nsub) {}

ProvCollector::SiteRow& ProvCollector::row(SiteId site) {
  if (site >= rows_.size()) rows_.resize(site + 1);
  return rows_[site];
}

ProvCollector::Attribution ProvCollector::on_conflict(
    const ConflictRecord& rec, Cycle wasted) {
  const std::uint32_t voff = victim_offset(rec.probe_bytes, rec.victim_bytes);
  const std::uint32_t roff =
      rec.probe_bytes != 0
          ? static_cast<std::uint32_t>(std::countr_zero(rec.probe_bytes))
          : 0;
  const SiteRegistry::Location v = sites_.resolve(rec.line + voff);
  const SiteRegistry::Location r = sites_.resolve(rec.line + roff);

  Attribution at;
  at.victim_site = v.site;
  at.victim_obj = v.object;
  at.victim_sub = subblock_index(voff, nsub_);
  at.req_site = r.site;
  at.req_obj = r.object;

  const std::uint32_t type = static_cast<std::uint32_t>(rec.type);
  SiteRow& sr = row(v.site);
  if (rec.is_false) {
    ++sr.false_by_type[type];
  } else {
    ++sr.true_by_type[type];
  }
  sr.wasted += wasted;

  auto& line_counts = lines_[{rec.line, v.site}];
  auto& pair_counts = pairs_[{r.site, v.site}];
  if (rec.is_false) {
    ++line_counts.first;
    ++pair_counts.first;
  } else {
    ++line_counts.second;
    ++pair_counts.second;
  }
  return at;
}

ProvCollector::Attribution ProvCollector::on_avoided(Addr line, ByteMask probe,
                                                     ByteMask victim_bytes) {
  const std::uint32_t voff = victim_offset(probe, victim_bytes);
  const std::uint32_t roff =
      probe != 0 ? static_cast<std::uint32_t>(std::countr_zero(probe)) : 0;
  const SiteRegistry::Location v = sites_.resolve(line + voff);
  const SiteRegistry::Location r = sites_.resolve(line + roff);
  ++row(v.site).avoided;
  Attribution at;
  at.victim_site = v.site;
  at.victim_obj = v.object;
  at.victim_sub = subblock_index(voff, nsub_);
  at.req_site = r.site;
  at.req_obj = r.object;
  return at;
}

void ProvCollector::flush(Stats& stats) const {
  stats.prov_enabled = true;
  const std::vector<SiteInfo>& sites = sites_.sites();

  stats.prov_site_names.clear();
  stats.prov_site_table.assign(sites.size() * kSiteStride, 0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    stats.prov_site_names.push_back(sites[i].name);
    static const SiteRow kEmpty{};
    const SiteRow& sr = i < rows_.size() ? rows_[i] : kEmpty;
    std::uint64_t* row = &stats.prov_site_table[i * kSiteStride];
    row[kSiteObjSize] = sites[i].obj_size;
    row[kSiteObjects] = sites[i].objects;
    row[kSiteBytes] = sites[i].bytes;
    std::copy_n(sr.false_by_type, 3, row + kSiteFalse);
    std::copy_n(sr.true_by_type, 3, row + kSiteTrue);
    row[kSiteAvoided] = sr.avoided;
    row[kSiteWasted] = sr.wasted;
  }

  // Hot lines: rank by total conflicts, then ascending (line, site) so the
  // cut is deterministic; keep the top kMaxHotLines rows in the blob.
  struct LineRow {
    Addr line;
    SiteId site;
    std::uint64_t nfalse;
    std::uint64_t ntrue;
  };
  std::vector<LineRow> hot;
  hot.reserve(lines_.size());
  for (const auto& [key, counts] : lines_) {
    hot.push_back(LineRow{key.first, key.second, counts.first, counts.second});
  }
  std::sort(hot.begin(), hot.end(), [](const LineRow& a, const LineRow& b) {
    const std::uint64_t ta = a.nfalse + a.ntrue;
    const std::uint64_t tb = b.nfalse + b.ntrue;
    if (ta != tb) return ta > tb;
    if (a.line != b.line) return a.line < b.line;
    return a.site < b.site;
  });
  if (hot.size() > kMaxHotLines) hot.resize(kMaxHotLines);
  stats.prov_hot_lines.clear();
  stats.prov_hot_lines.reserve(hot.size() * kLineStride);
  for (const LineRow& r : hot) {
    stats.prov_hot_lines.push_back(r.line);
    stats.prov_hot_lines.push_back(r.site);
    stats.prov_hot_lines.push_back(r.nfalse);
    stats.prov_hot_lines.push_back(r.ntrue);
  }

  stats.prov_pairs.clear();
  stats.prov_pairs.reserve(pairs_.size() * kPairStride);
  for (const auto& [key, counts] : pairs_) {
    stats.prov_pairs.push_back(key.first);
    stats.prov_pairs.push_back(key.second);
    stats.prov_pairs.push_back(counts.first);
    stats.prov_pairs.push_back(counts.second);
  }
}

}  // namespace asfsim::prov
