// lint fixture: MUST flag unordered-iteration (three sites: the three
// unordered_map declarations — a member, a map nested in a vector, and a
// local). R6 bans the container type itself, so the loops below, whose
// order-sensitive effects are why the type is banned, add no findings.
// Lives under an `oltp/` path component, so the determinism pass is in
// scope: workload-side bookkeeping feeds validation oracles and stats.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace asfsim {

struct OltpAudit {
  std::unordered_map<std::uint64_t, std::uint64_t> version_by_key;
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> per_core;
};

std::uint64_t first_dirty_key(const OltpAudit& audit, std::size_t core) {
  // Direct iteration of an unordered member: first-match is hash order.
  for (const auto& [key, version] : audit.version_by_key) {
    if (version != 0) return key;
  }
  // Indexed into a vector of unordered maps: same problem per core.
  for (const auto& [key, version] : audit.per_core[core]) {
    if (version != 0) return key;
  }
  // Local unordered container.
  std::unordered_map<std::uint64_t, std::uint64_t> scratch;
  std::uint64_t sum = 0;
  for (const auto& [key, version] : scratch) {
    sum = sum * 31 + key + version;  // order-sensitive fold
  }
  return sum;
}

}  // namespace asfsim
