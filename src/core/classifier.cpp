#include "core/classifier.hpp"

namespace asfsim {

Classification classify_conflict(const SpecState& victim, ByteMask probe,
                                 bool invalidating) {
  Classification c;
  c.is_false = !true_conflict(victim, probe, invalidating);
  if (!invalidating) {
    // A load probe only conflicts with speculatively-written data.
    c.type = ConflictType::kRAW;
  } else if (c.is_false) {
    // False invalidating conflict: type is named from what the victim holds.
    c.type = victim.write_bytes != 0 ? ConflictType::kWAW : ConflictType::kWAR;
  } else {
    // True invalidating conflict: overlap with writes dominates.
    c.type = (probe & victim.write_bytes) != 0 ? ConflictType::kWAW
                                               : ConflictType::kWAR;
  }
  return c;
}

}  // namespace asfsim
