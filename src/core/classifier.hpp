// Ground-truth conflict classification (paper Figs. 1-2 vocabulary).
//
// Every detected conflict is classified against the victim's exact byte
// masks, independent of which detector found it:
//   * false  — the probe's bytes do not overlap the victim's relevant bytes
//              (pure cache-line / sub-block false sharing);
//   * type   — WAR / RAW / WAW, named from the incoming access versus the
//              victim's existing speculative state.
#pragma once

#include "core/conflict.hpp"
#include "core/detector.hpp"

namespace asfsim {

struct Classification {
  bool is_false = false;
  ConflictType type = ConflictType::kWAR;
};

/// Classify a (hypothetical or detected) conflict between an incoming probe
/// and a victim's speculative state.
[[nodiscard]] Classification classify_conflict(const SpecState& victim,
                                               ByteMask probe,
                                               bool invalidating);

/// The victim bytes a probe is checked against: a store (invalidating)
/// probe meets the read and write sets, a load probe the write set only.
/// Baseline ASF conflicts exactly when this is non-empty.
[[nodiscard]] constexpr ByteMask relevant_bytes(const SpecState& victim,
                                                bool invalidating) {
  return invalidating ? (victim.read_bytes | victim.write_bytes)
                      : victim.write_bytes;
}

/// Is there a true (byte-overlap) conflict?
[[nodiscard]] constexpr bool true_conflict(const SpecState& victim,
                                           ByteMask probe, bool invalidating) {
  return (probe & relevant_bytes(victim, invalidating)) != 0;
}

}  // namespace asfsim
