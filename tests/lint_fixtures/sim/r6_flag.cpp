// lint fixture: MUST flag unordered-iteration (three sites: the three
// unordered_map declarations — a member, a map nested in a vector, and a
// local). R6 bans the container type itself, so the loops below, whose
// order-sensitive effects are why the type is banned, add no findings.
// Lives under a `sim/` path component, so the determinism pass is in scope.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace asfsim {

struct DetectorState {
  std::unordered_map<std::uint64_t, std::uint32_t> spec;
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> per_core;
};

std::uint64_t first_violation(const DetectorState& st, std::size_t core) {
  // Direct iteration of an unordered member: first-match is hash order.
  for (const auto& [line, mask] : st.spec) {
    if (mask != 0) return line;
  }
  // Indexed into a vector of unordered maps: same problem per core.
  for (const auto& [line, mask] : st.per_core[core]) {
    if (mask != 0) return line;
  }
  // Local unordered container.
  std::unordered_map<std::uint64_t, std::uint32_t> scratch;
  std::uint64_t sum = 0;
  for (const auto& [line, mask] : scratch) {
    sum = sum * 31 + line;  // order-sensitive fold
  }
  return sum;
}

}  // namespace asfsim
