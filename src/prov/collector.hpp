// Conflict-provenance collector: aggregates every detected conflict into
// per-site / per-line / per-site-pair matrices, split true vs false and by
// WAR/RAW/WAW, with wasted-cycle attribution and "baseline would have
// conflicted, sub-blocking avoided it" credit.
//
// Lifecycle: owned by Machine, armed into AsfRuntime (conflict path) and
// MemorySystem (avoided path) only when SimConfig::provenance is set — the
// disabled cost is one null-pointer check on the conflict path and zero on
// the access path. flush() writes the bounded result into the stats blob's
// opt-in v4 section.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/conflict.hpp"
#include "prov/site_registry.hpp"

namespace asfsim {
struct Stats;
}  // namespace asfsim

namespace asfsim::prov {

/// Hot-line rows kept in the stats blob (ranked by total conflicts); the
/// full per-line map is unbounded, the blob is not.
inline constexpr std::size_t kMaxHotLines = 32;

/// Per-site stats-blob row layout: the offset of each column within one
/// prov_site_table row, then the row's width (prov_site_table stride).
inline constexpr std::size_t kSiteObjSize = 0;
inline constexpr std::size_t kSiteObjects = 1;
inline constexpr std::size_t kSiteBytes = 2;
inline constexpr std::size_t kSiteFalse = 3;  // 3 columns: WAR, RAW, WAW
inline constexpr std::size_t kSiteTrue = 6;   // 3 columns: WAR, RAW, WAW
inline constexpr std::size_t kSiteAvoided = 9;
inline constexpr std::size_t kSiteWasted = 10;
inline constexpr std::size_t kSiteStride = 11;

/// Site `i`'s row of a prov_site_table.
[[nodiscard]] inline const std::uint64_t* site_row(
    const std::vector<std::uint64_t>& table, std::size_t i) {
  return &table[i * kSiteStride];
}
/// A site row's false (true) conflicts over all three types.
[[nodiscard]] inline std::uint64_t site_false(const std::uint64_t* row) {
  return row[kSiteFalse] + row[kSiteFalse + 1] + row[kSiteFalse + 2];
}
[[nodiscard]] inline std::uint64_t site_true(const std::uint64_t* row) {
  return row[kSiteTrue] + row[kSiteTrue + 1] + row[kSiteTrue + 2];
}

/// Per-line stats-blob row layout (prov_hot_lines stride):
/// line, victim_site, false, true.
inline constexpr std::size_t kLineStride = 4;
/// Site-pair stats-blob row layout (prov_pairs stride):
/// requester_site, victim_site, false, true.
inline constexpr std::size_t kPairStride = 4;

class ProvCollector {
 public:
  ProvCollector(const SiteRegistry& sites, std::uint32_t nsub);

  /// Provenance attached to one conflict's trace event.
  struct Attribution {
    SiteId victim_site = kUntaggedSite;
    std::uint64_t victim_obj = 0;
    std::uint32_t victim_sub = 0;  // sub-block index of the victim byte
    SiteId req_site = kUntaggedSite;
    std::uint64_t req_obj = 0;
  };

  /// Attribute one detected conflict (one doomed victim). `wasted` is the
  /// victim's in-transaction cycles discarded by this doom.
  Attribution on_conflict(const ConflictRecord& rec, Cycle wasted);

  /// Credit the victim site for a false conflict a per-line detector would
  /// have raised but the active detector disambiguated away. Returns the
  /// attribution for the kAvoided trace event.
  Attribution on_avoided(Addr line, ByteMask probe, ByteMask victim_bytes);

  /// Write the aggregated section into the stats blob fields.
  void flush(Stats& stats) const;

 private:
  struct SiteRow {
    std::uint64_t false_by_type[3] = {0, 0, 0};  // WAR, RAW, WAW
    std::uint64_t true_by_type[3] = {0, 0, 0};
    std::uint64_t avoided = 0;
    std::uint64_t wasted = 0;
  };

  SiteRow& row(SiteId site);

  const SiteRegistry& sites_;
  std::uint32_t nsub_;
  std::vector<SiteRow> rows_;  // indexed by SiteId, grown on demand
  // (line, victim site) -> (false, true). Ordered so flush() is
  // deterministic without a sort over an unordered container.
  std::map<std::pair<Addr, SiteId>, std::pair<std::uint64_t, std::uint64_t>>
      lines_;
  // (requester site, victim site) -> (false, true).
  std::map<std::pair<SiteId, SiteId>, std::pair<std::uint64_t, std::uint64_t>>
      pairs_;
};

}  // namespace asfsim::prov
