// lint fixture: MUST pass — ordered/sequence containers and the tree's
// deterministic address map. No std::unordered_* container appears: R6
// bans the type itself in simulator-affecting code.
#include <cstdint>
#include <map>
#include <vector>

#include "sim/addr_map.hpp"

namespace asfsim {

struct DetectorState {
  AddrMap<std::uint32_t> spec;
  std::vector<AddrMap<std::uint32_t>> per_core;
  std::vector<std::uint64_t> lines;
  std::map<std::uint64_t, std::uint32_t> ordered;
};

std::uint64_t stable_walk(const DetectorState& st) {
  std::uint64_t sum = 0;
  // A plain vector iterates in index order.
  for (const std::uint64_t line : st.lines) sum += line;
  // std::map iterates in key order.
  for (const auto& [line, mask] : st.ordered) sum += line + mask;
  // Iterating the OUTER vector of per-core maps is index order, fine.
  for (const auto& core_map : st.per_core) sum += core_map.size();
  // AddrMap iterates in slot order: a pure function of the operations.
  for (const auto& [line, mask] : st.spec) sum += line ^ mask;
  const auto it = st.spec.find(7);
  if (it != st.spec.end()) sum += it->second;
  return sum;
}

}  // namespace asfsim
