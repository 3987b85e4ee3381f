#include "core/subblock_detector.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/line_detector.hpp"
#include "core/perfect_detector.hpp"
#include "core/waronly_detector.hpp"

namespace asfsim {

SubBlockDetector::SubBlockDetector(std::uint32_t nsub, bool dirty_handling,
                                   bool waw_line)
    : nsub_(nsub), dirty_handling_(dirty_handling), waw_line_(waw_line) {
  if (!valid_nsub(nsub, DetectorKind::kSubBlock)) {
    throw std::invalid_argument(
        "SubBlockDetector: nsub must be a power of two in [2,16]");
  }
  std::snprintf(name_, sizeof(name_), "subblock-%u%s%s", nsub,
                dirty_handling ? "" : "-nodirty", waw_line ? "-wawline" : "");
}

ProbeCheck SubBlockDetector::check_probe(const SpecState& victim,
                                         ByteMask probe,
                                         bool invalidating) const {
  ProbeCheck pc;
  const SubBlockMask psb = quantize(probe, nsub_);

  if (!invalidating) {
    // Word-wide LUT application: a remote load conflicts exactly with the
    // probed S-WR sub-blocks (RAW row of kSubBlockLut).
    if (victim.bits.probe_conflicts(psb, false) != 0) {
      pc.conflict = true;  // true-or-intra-sub-block RAW
    } else if (dirty_handling_) {
      // No conflict: report the victim's S-WR sub-blocks so the requester
      // marks its copies Dirty (paper Fig. 7).
      pc.piggyback = victim.bits.spec_written();
    }
    return pc;
  }

  // Invalidating probe: conflicts exactly with the probed speculative
  // sub-blocks (WAR/WAW rows). In the paper-faithful WAW-line mode, any
  // S-WR sub-block additionally aborts the whole line (§IV-D2: with
  // in-cache versioning, losing the line in the invalidation loses the
  // speculative data). The default mode checks writes at sub-block
  // granularity too, which is sound with overlay-based versioning plus
  // retained metadata and the commit-time validation net (DESIGN.md §6.5).
  if (victim.bits.probe_conflicts(psb, true) != 0 ||
      (waw_line_ && victim.bits.spec_written() != 0)) {
    pc.conflict = true;
  } else if (victim.bits.speculative() != 0) {
    // False WAR/WAW: the transaction survives, but the line is
    // invalidated. Keep the speculative info inside the invalidated line
    // (§IV-B) so later true conflicts are still caught.
    pc.retain_spec_info = true;
  }
  return pc;
}

bool SubBlockDetector::dirty_hit(SubBlockMask dirty, ByteMask access) const {
  if (!dirty_handling_) return false;
  return (dirty & quantize(access, nsub_)) != 0;
}

const char* to_string(DetectorKind k) {
  switch (k) {
    case DetectorKind::kBaseline: return "baseline-asf";
    case DetectorKind::kSubBlock: return "subblock";
    case DetectorKind::kSubBlockWawLine: return "subblock-wawline";
    case DetectorKind::kSubBlockNoDirty: return "subblock-nodirty";
    case DetectorKind::kPerfect: return "perfect";
    case DetectorKind::kWarOnly: return "war-only";
  }
  return "?";
}

std::unique_ptr<ConflictDetector> make_detector(DetectorKind kind,
                                                std::uint32_t nsub) {
  switch (kind) {
    case DetectorKind::kBaseline:
      return std::make_unique<LineDetector>();
    case DetectorKind::kSubBlock:
      return std::make_unique<SubBlockDetector>(nsub, /*dirty_handling=*/true);
    case DetectorKind::kSubBlockWawLine:
      return std::make_unique<SubBlockDetector>(nsub, /*dirty_handling=*/true,
                                                /*waw_line=*/true);
    case DetectorKind::kSubBlockNoDirty:
      return std::make_unique<SubBlockDetector>(nsub,
                                                /*dirty_handling=*/false);
    case DetectorKind::kPerfect:
      return std::make_unique<PerfectDetector>();
    case DetectorKind::kWarOnly:
      return std::make_unique<WarOnlyDetector>();
  }
  throw std::invalid_argument("make_detector: unknown kind");
}

}  // namespace asfsim
