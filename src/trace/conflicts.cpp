#include "trace/conflicts.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "stats/report.hpp"
#include "trace/jsonl.hpp"

namespace asfsim::trace {

namespace {

std::string hex_line(Addr line) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(line));
  return buf;
}

const std::string kUnknownSite = "(site?)";

/// Render one line's sub-block occupancy as a fixed-width heat string:
/// '.' for untouched cells, '1'..'9' scaled against the line's hottest cell.
std::string heat_string(const ConflictForensics::LineAgg& la,
                        std::uint32_t ncells) {
  std::uint64_t max_hits = 0;
  for (std::uint32_t s = 0; s < ncells; ++s) {
    max_hits = std::max(max_hits, la.sub_hits[s]);
  }
  std::string heat(ncells, '.');
  if (max_hits == 0) return heat;
  for (std::uint32_t s = 0; s < ncells; ++s) {
    const std::uint64_t h = la.sub_hits[s];
    if (h == 0) continue;
    heat[s] = static_cast<char>('1' + (8 * (h - 1)) / max_hits);
  }
  return heat;
}

}  // namespace

void ConflictForensics::add(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kSite: {
      if (ev.site_id >= sites.size()) sites.resize(ev.site_id + 1);
      sites[ev.site_id] = {ev.site_name, ev.site_obj_size, ev.site_objects,
                           ev.site_bytes};
      ++prov_events;
      break;
    }
    case TraceEventKind::kConflict: {
      ++conflicts;
      if (ev.is_false) ++false_conflicts;
      if (!ev.has_prov) break;
      ++prov_events;
      const std::size_t t = static_cast<std::size_t>(ev.type);
      SiteAgg& sa = by_site[ev.victim_site];
      if (ev.is_false) {
        ++sa.false_by_type[t];
      } else {
        ++sa.true_by_type[t];
      }
      LineAgg& la = by_line[ev.line];
      la.victim_site = ev.victim_site;
      if (ev.is_false) {
        ++la.false_conflicts;
      } else {
        ++la.true_conflicts;
      }
      if (ev.victim_sub < la.sub_hits.size()) ++la.sub_hits[ev.victim_sub];
      auto& pc = by_pair[{ev.req_site, ev.victim_site}];
      if (ev.is_false) {
        ++pc.first;
      } else {
        ++pc.second;
      }
      break;
    }
    case TraceEventKind::kAvoided: {
      ++avoided;
      if (!ev.has_prov) break;
      ++prov_events;
      ++by_site[ev.victim_site].avoided;
      break;
    }
    default:
      break;
  }
}

const std::string& ConflictForensics::site_name(std::uint32_t id) const {
  if (id < sites.size() && !sites[id].name.empty()) return sites[id].name;
  return kUnknownSite;
}

bool collect_conflicts_jsonl(std::istream& in, ConflictForensics& out,
                             std::string& err) {
  std::uint64_t events = 0;
  const auto add = [&](const TraceEvent& ev) {
    ++events;
    out.add(ev);
  };
  if (!for_each_jsonl_event(in, add, err)) return false;
  if (events == 0) {
    err = "empty trace (no events)";
    return false;
  }
  if (out.prov_events == 0) {
    err = "trace carries no provenance data (re-run with --prov)";
    return false;
  }
  return true;
}

void print_conflicts(const ConflictForensics& f, std::ostream& os, int top_n) {
  os << "conflicts: " << f.conflicts << " (" << f.false_conflicts
     << " false, " << (f.conflicts - f.false_conflicts) << " true)  avoided: "
     << f.avoided << "  sites: " << f.sites.size() << "\n";

  // Ranked offender sites, worst false-conflict source first.
  os << "\nOffender sites (by false conflicts):\n";
  {
    std::vector<std::pair<std::uint32_t, ConflictForensics::SiteAgg>> rows(
        f.by_site.begin(), f.by_site.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.false_total() != b.second.false_total()) {
        return a.second.false_total() > b.second.false_total();
      }
      if (a.second.true_total() != b.second.true_total()) {
        return a.second.true_total() > b.second.true_total();
      }
      return a.first < b.first;
    });
    if (rows.size() > static_cast<std::size_t>(top_n)) rows.resize(top_n);
    TextTable t({"Site", "Objects", "False", "True", "WAR", "RAW", "WAW",
                 "Avoided"});
    for (const auto& [id, sa] : rows) {
      t.add_row({f.site_name(id),
                 id < f.sites.size() ? std::to_string(f.sites[id].objects)
                                     : std::string("?"),
                 std::to_string(sa.false_total()),
                 std::to_string(sa.true_total()),
                 std::to_string(sa.false_by_type[0] + sa.true_by_type[0]),
                 std::to_string(sa.false_by_type[1] + sa.true_by_type[1]),
                 std::to_string(sa.false_by_type[2] + sa.true_by_type[2]),
                 std::to_string(sa.avoided)});
    }
    t.print(os);
  }

  // Hottest lines with the sub-block occupancy heatmap. The heat width is
  // the report-wide highest victim sub-block index + 1, so all rows align
  // and the width reflects the detector's actual granularity.
  std::uint32_t ncells = 1;
  for (const auto& [line, la] : f.by_line) {
    for (std::uint32_t s = 0; s < la.sub_hits.size(); ++s) {
      if (la.sub_hits[s] != 0 && s + 1 > ncells) ncells = s + 1;
    }
  }
  os << "\nHottest conflicting lines (heat = conflicts per sub-block, "
     << ncells << " cells):\n";
  {
    std::vector<std::pair<Addr, ConflictForensics::LineAgg>> rows(
        f.by_line.begin(), f.by_line.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.total() != b.second.total()) {
        return a.second.total() > b.second.total();
      }
      return a.first < b.first;
    });
    if (rows.size() > static_cast<std::size_t>(top_n)) rows.resize(top_n);
    TextTable t({"Line", "Site", "False", "True", "Heat"});
    for (const auto& [line, la] : rows) {
      t.add_row({hex_line(line), f.site_name(la.victim_site),
                 std::to_string(la.false_conflicts),
                 std::to_string(la.true_conflicts), heat_string(la, ncells)});
    }
    t.print(os);
  }

  os << "\nSite pairs (requester -> victim):\n";
  {
    std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                          std::pair<std::uint64_t, std::uint64_t>>>
        rows(f.by_pair.begin(), f.by_pair.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      const std::uint64_t at = a.second.first + a.second.second;
      const std::uint64_t bt = b.second.first + b.second.second;
      if (at != bt) return at > bt;
      return a.first < b.first;
    });
    if (rows.size() > static_cast<std::size_t>(top_n)) rows.resize(top_n);
    TextTable t({"Requester site", "Victim site", "False", "True"});
    for (const auto& [key, counts] : rows) {
      t.add_row({f.site_name(key.first), f.site_name(key.second),
                 std::to_string(counts.first),
                 std::to_string(counts.second)});
    }
    t.print(os);
  }
}

void print_conflicts_csv(const ConflictForensics& f, std::ostream& os) {
  os << "site,name,obj_size,objects,bytes,false_war,false_raw,false_waw,"
        "true_war,true_raw,true_waw,avoided\n";
  for (const auto& [id, sa] : f.by_site) {
    const ConflictForensics::Site blank{};
    const ConflictForensics::Site& si =
        id < f.sites.size() ? f.sites[id] : blank;
    os << id << ',' << f.site_name(id) << ',' << si.obj_size << ','
       << si.objects << ',' << si.bytes << ',' << sa.false_by_type[0] << ','
       << sa.false_by_type[1] << ',' << sa.false_by_type[2] << ','
       << sa.true_by_type[0] << ',' << sa.true_by_type[1] << ','
       << sa.true_by_type[2] << ',' << sa.avoided << '\n';
  }
  os << "\nline,site,false,true,subs\n";
  for (const auto& [line, la] : f.by_line) {
    os << hex_line(line) << ',' << f.site_name(la.victim_site) << ','
       << la.false_conflicts << ',' << la.true_conflicts << ',';
    bool first = true;
    for (std::uint32_t s = 0; s < la.sub_hits.size(); ++s) {
      if (la.sub_hits[s] == 0) continue;
      if (!first) os << ';';
      os << s << ':' << la.sub_hits[s];
      first = false;
    }
    os << '\n';
  }
  os << "\nreq_site,victim_site,false,true\n";
  for (const auto& [key, counts] : f.by_pair) {
    os << f.site_name(key.first) << ',' << f.site_name(key.second) << ','
       << counts.first << ',' << counts.second << '\n';
  }
}

}  // namespace asfsim::trace
