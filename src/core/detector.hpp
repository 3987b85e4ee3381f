// Conflict-detection policy: when a coherence probe meets a victim's
// speculative state, is it a conflict?
//
// A Detector is a small immutable value — the policy kind and the sub-block
// count it runs with — and every rule is one `switch` on the kind
// (detector.cpp). The per-(core, line) speculative metadata it reads is the
// SpecState below, owned by the MemorySystem and cleared when the owning
// transaction commits or aborts.
//
// SpecState carries two views of the same speculative accesses:
//   * exact byte masks (read_bytes / write_bytes) — the ground truth used by
//     the classifier (false/true, WAR/RAW/WAW) and by the perfect detector;
//   * architectural sub-block bits (paper Table I) — what the proposed
//     hardware actually stores and checks.
// The baseline ASF detector only looks at "any byte set" (its per-line SR/SW
// bits are exactly read_bytes != 0 / write_bytes != 0).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "core/subblock_state.hpp"
#include "mem/addr.hpp"

namespace asfsim {

/// Per-(core, line) speculative metadata for the core's current transaction.
struct SpecState {
  ByteMask read_bytes = 0;   // bytes speculatively read
  ByteMask write_bytes = 0;  // bytes speculatively written
  SubBlockBits bits;         // architectural per-sub-block SPEC/WR bits
};

/// Result of checking an incoming coherence probe against a victim's state.
struct ProbeCheck {
  bool conflict = false;        // abort the victim's transaction
  SubBlockMask piggyback = 0;   // spec-written sub-blocks to report back to the
                                // requester (marked Dirty there); load probes
  bool retain_spec_info = false;  // on invalidation without conflict, keep the
                                  // speculative info in the invalidated line
};

enum class DetectorKind : std::uint8_t {
  kBaseline = 0,        // ASF per-line SR/SW bits
  kSubBlock,            // speculative sub-blocking state; WAW checked at
                        // sub-block granularity (sound here because
                        // versioning is overlay-based — see DESIGN.md §6.5)
  kSubBlockWawLine,     // paper §IV-D2 faithful: any invalidation of a line
                        // holding S-WR sub-blocks aborts (in-cache
                        // versioning cannot survive losing the line)
  kSubBlockNoDirty,     // ablation: sub-blocking WITHOUT dirty handling
                        // (demonstrates the Fig. 6 atomicity problem)
  kPerfect,             // byte-granularity oracle: zero false conflicts
  kWarOnly,             // prior work (SpMT/DPTM-style): only false WAR
                        // conflicts are speculated away
};

[[nodiscard]] const char* to_string(DetectorKind k);

/// True for the detectors that track sub-blocks of a line.
[[nodiscard]] constexpr bool tracks_subblocks(DetectorKind k) {
  return k == DetectorKind::kSubBlock || k == DetectorKind::kSubBlockWawLine ||
         k == DetectorKind::kSubBlockNoDirty;
}

/// The sub-block-count rule: a power of two up to kMaxSubBlocks, and at
/// least 2 when `kind` tracks sub-blocks (one sub-block is the whole line).
/// Per-line detectors ignore the count, so the default kind admits every
/// count some detector runs with. The Detector constructor and the --nsub
/// flags check this.
[[nodiscard]] constexpr bool valid_nsub(
    std::uint32_t nsub, DetectorKind kind = DetectorKind::kBaseline) {
  return std::has_single_bit(nsub) && nsub <= kMaxSubBlocks &&
         (nsub >= 2 || !tracks_subblocks(kind));
}

/// The sub-block count `kind` runs with when asked for `nsub`: the per-line
/// kinds track one "sub-block", the whole line. The Detector constructor and
/// the jobspec hash both apply it, so one simulation has one cache key.
[[nodiscard]] constexpr std::uint32_t effective_nsub(DetectorKind kind,
                                                     std::uint32_t nsub) {
  return tracks_subblocks(kind) ? nsub : 1;
}

class Detector {
 public:
  /// Throws std::invalid_argument when a sub-block kind cannot run with
  /// `nsub` (valid_nsub); the per-line kinds store 1 (effective_nsub).
  Detector(DetectorKind kind, std::uint32_t nsub);

  [[nodiscard]] DetectorKind kind() const { return kind_; }
  /// e.g. "baseline-asf", "subblock-4", "subblock-8-nodirty".
  [[nodiscard]] std::string name() const;

  /// Number of sub-blocks per line this detector tracks (1 for per-line).
  [[nodiscard]] std::uint32_t nsub() const { return nsub_; }

  /// True for the perfect detector: conflicts are found by a centralized
  /// byte-overlap check on every access instead of via coherence probes.
  [[nodiscard]] bool global_oracle() const {
    return kind_ == DetectorKind::kPerfect;
  }

  /// True when the detector piggy-backs S-WR masks on load-probe responses
  /// so requesters mark those sub-blocks Dirty (paper §IV-C). Gates the
  /// piggyback-coverage invariant in MemorySystem::check_invariants().
  [[nodiscard]] bool dirty_handling() const {
    return kind_ == DetectorKind::kSubBlock ||
           kind_ == DetectorKind::kSubBlockWawLine;
  }

  /// Check an incoming probe (byte mask `probe`) against a remote victim's
  /// speculative state. `invalidating` = the probe is for a write/RFO.
  [[nodiscard]] ProbeCheck check_probe(const SpecState& victim, ByteMask probe,
                                       bool invalidating) const;

  /// Should a transactional load that hits the local L1 be treated as a miss
  /// because it touches Dirty sub-blocks? `dirty` is the line's dirty-mark
  /// sub-block mask, `access` the load's byte mask.
  [[nodiscard]] bool dirty_hit(SubBlockMask dirty, ByteMask access) const {
    return dirty_handling() && (dirty & quantize(access, nsub_)) != 0;
  }

 private:
  DetectorKind kind_;
  std::uint32_t nsub_;
};

}  // namespace asfsim
