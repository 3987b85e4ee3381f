// lint fixture: MUST pass — ordered/sequence containers and the tree's
// deterministic address map in OLTP bookkeeping. No std::unordered_*
// container appears: R6 bans the type itself in simulator-affecting code.
#include <cstdint>
#include <map>
#include <vector>

#include "sim/addr_map.hpp"

namespace asfsim {

struct OltpAudit {
  AddrMap<std::uint64_t> version_by_key;
  std::vector<std::uint64_t> committed_rmws;
  std::map<std::uint64_t, std::uint64_t> ordered_versions;
};

std::uint64_t stable_audit(const OltpAudit& audit) {
  std::uint64_t sum = 0;
  // A plain vector iterates in index (core) order.
  for (const std::uint64_t n : audit.committed_rmws) sum += n;
  // std::map iterates in key order.
  for (const auto& [key, version] : audit.ordered_versions) {
    sum += key + version;
  }
  // Point lookups into the deterministic address map.
  const auto it = audit.version_by_key.find(7);
  if (it != audit.version_by_key.end()) sum += it->second;
  return sum;
}

}  // namespace asfsim
