#include "core/detector.hpp"

#include <stdexcept>

#include "core/classifier.hpp"

namespace asfsim {

Detector::Detector(DetectorKind kind, std::uint32_t nsub)
    : kind_(kind), nsub_(effective_nsub(kind, nsub)) {
  if (!valid_nsub(nsub_, kind)) {
    throw std::invalid_argument(
        "Detector: nsub must be a power of two in [2,16]");
  }
}

std::string Detector::name() const {
  if (!tracks_subblocks(kind_)) return to_string(kind_);
  std::string n = "subblock-" + std::to_string(nsub_);
  if (kind_ == DetectorKind::kSubBlockNoDirty) n += "-nodirty";
  if (kind_ == DetectorKind::kSubBlockWawLine) n += "-wawline";
  return n;
}

ProbeCheck Detector::check_probe(const SpecState& victim, ByteMask probe,
                                 bool invalidating) const {
  ProbeCheck pc;
  switch (kind_) {
    case DetectorKind::kBaseline:
      // Baseline ASF: one SR and one SW bit per line (paper §IV-A). An
      // invalidating probe conflicts with SR or SW, a load probe with SW
      // only; the probe's bytes are irrelevant.
      pc.conflict = relevant_bytes(victim, invalidating) != 0;
      return pc;

    case DetectorKind::kPerfect:
      // The paper's "perfect system" upper bound (§V-A), a centralized
      // byte-overlap oracle on every access (MemorySystem::oracle_check):
      // coherence probes themselves never signal conflicts.
      return pc;

    case DetectorKind::kWarOnly:
      // Prior work (paper §II): SpMT (Porter et al.) and DPTM (Tabba et
      // al.) let a false WAR proceed and validate by value later, which
      // would succeed since the untouched bytes are unchanged. Modeled
      // eagerly: a true WAR aborts now (same lost work). RAW and WAW stay
      // line-granular, so the RAW false conflicts that Fig. 2 shows
      // dominant for several programs still abort.
      if (!invalidating) {
        pc.conflict = victim.write_bytes != 0;
      } else if (victim.write_bytes != 0 || (probe & victim.read_bytes) != 0) {
        pc.conflict = true;
      } else if (victim.read_bytes != 0) {
        pc.retain_spec_info = true;  // keep the read set for later probes
      }
      return pc;

    case DetectorKind::kSubBlock:
    case DetectorKind::kSubBlockWawLine:
    case DetectorKind::kSubBlockNoDirty:
      break;
  }

  // Speculative sub-blocking (paper §IV): the probe is checked against the
  // (SPEC, WR) bits of the sub-blocks it touches (Table I, kSubBlockLut).
  const SubBlockMask psb = quantize(probe, nsub_);
  if (!invalidating) {
    // A remote load conflicts exactly with the probed S-WR sub-blocks
    // (RAW). Otherwise the victim's S-WR set rides on the response so the
    // requester marks its copies Dirty (§IV-C, Fig. 7) — unless dirty
    // handling is ablated (kSubBlockNoDirty, the Fig. 6 problem).
    if (victim.bits.probe_conflicts(psb, false) != 0) {
      pc.conflict = true;
    } else if (dirty_handling()) {
      pc.piggyback = victim.bits.spec_written();
    }
    return pc;
  }
  // A remote store conflicts exactly with the probed speculative
  // sub-blocks (WAR/WAW). kSubBlockWawLine also aborts on any S-WR
  // sub-block (§IV-D2: in-cache versioning loses the speculative data with
  // the line); the default checks writes per sub-block too, sound with
  // overlay versioning, retained info and commit-time validation
  // (DESIGN.md §6.5).
  if (victim.bits.probe_conflicts(psb, true) != 0 ||
      (kind_ == DetectorKind::kSubBlockWawLine &&
       victim.bits.spec_written() != 0)) {
    pc.conflict = true;
  } else if (victim.bits.speculative() != 0) {
    // False WAR/WAW: the transaction survives the invalidation, and the
    // line keeps its speculative info (§IV-B) so later true conflicts are
    // still caught.
    pc.retain_spec_info = true;
  }
  return pc;
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

}  // namespace asfsim
