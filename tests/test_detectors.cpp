// Unit tests: conflict-detection policies (Table I state machine, probe
// checks at every granularity, classifier ground truth).
#include <gtest/gtest.h>

#include <array>

#include "core/classifier.hpp"
#include "core/detector.hpp"
#include "core/subblock_state.hpp"

namespace asfsim {
namespace {

SpecState read_state(ByteMask bytes, std::uint32_t nsub) {
  SpecState s;
  s.read_bytes = bytes;
  s.bits.spec = quantize(bytes, nsub);
  return s;
}

SpecState write_state(ByteMask bytes, std::uint32_t nsub) {
  SpecState s;
  s.write_bytes = bytes;
  s.bits.spec = quantize(bytes, nsub);
  s.bits.wr = quantize(bytes, nsub);
  return s;
}

// ---- Table I encoding -------------------------------------------------------

TEST(SubBlockState, TableIEncoding) {
  EXPECT_EQ(make_state(false, false), SubBlockState::kNonSpec);
  EXPECT_EQ(make_state(false, true), SubBlockState::kDirty);
  EXPECT_EQ(make_state(true, false), SubBlockState::kSpecRead);
  EXPECT_EQ(make_state(true, true), SubBlockState::kSpecWrite);
  for (const auto s : {SubBlockState::kNonSpec, SubBlockState::kDirty,
                       SubBlockState::kSpecRead, SubBlockState::kSpecWrite}) {
    EXPECT_EQ(make_state(spec_bit(s), wr_bit(s)), s);
  }
}

TEST(SubBlockState, PackedBitsRoundTrip) {
  SubBlockBits b;
  b.set(0, SubBlockState::kSpecRead);
  b.set(1, SubBlockState::kSpecWrite);
  b.set(3, SubBlockState::kDirty);
  EXPECT_EQ(b.state(0), SubBlockState::kSpecRead);
  EXPECT_EQ(b.state(1), SubBlockState::kSpecWrite);
  EXPECT_EQ(b.state(2), SubBlockState::kNonSpec);
  EXPECT_EQ(b.state(3), SubBlockState::kDirty);
  EXPECT_EQ(b.speculative(), 0b0011u);
  EXPECT_EQ(b.spec_written(), 0b0010u);
  EXPECT_EQ(b.spec_read_only(), 0b0001u);
  EXPECT_EQ(b.dirty(), 0b1000u);
}

TEST(SubBlockState, SetOverwritesPreviousState) {
  SubBlockBits b;
  b.set(2, SubBlockState::kSpecWrite);
  b.set(2, SubBlockState::kSpecRead);
  EXPECT_EQ(b.state(2), SubBlockState::kSpecRead);
  b.set(2, SubBlockState::kNonSpec);
  EXPECT_EQ(b.state(2), SubBlockState::kNonSpec);
}

// ---- baseline (per-line SR/SW) ----------------------------------------------

TEST(LineDetector, InvalidatingProbeConflictsWithAnySpecState) {
  const Detector d(DetectorKind::kBaseline, 1);
  EXPECT_TRUE(d.check_probe(read_state(byte_mask(0, 8), 1), byte_mask(32, 8),
                            true).conflict);
  EXPECT_TRUE(d.check_probe(write_state(byte_mask(0, 8), 1), byte_mask(32, 8),
                            true).conflict);
  EXPECT_FALSE(d.check_probe(SpecState{}, byte_mask(0, 8), true).conflict);
}

TEST(LineDetector, LoadProbeConflictsOnlyWithSpecWrites) {
  const Detector d(DetectorKind::kBaseline, 1);
  EXPECT_FALSE(d.check_probe(read_state(byte_mask(0, 8), 1), byte_mask(0, 8),
                             false).conflict);
  EXPECT_TRUE(d.check_probe(write_state(byte_mask(0, 8), 1), byte_mask(32, 8),
                            false).conflict);
}

// ---- speculative sub-blocking -----------------------------------------------

class SubBlockDetectorTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  [[nodiscard]] std::uint32_t nsub() const { return GetParam(); }
  [[nodiscard]] std::uint32_t sub_bytes() const { return 64 / nsub(); }
};

TEST_P(SubBlockDetectorTest, LoadVsRemoteWriteSameSubBlockConflicts) {
  const Detector d(DetectorKind::kSubBlock, nsub());
  const auto victim = write_state(byte_mask(0, 4), nsub());
  EXPECT_TRUE(d.check_probe(victim, byte_mask(0, 4), false).conflict);
}

TEST_P(SubBlockDetectorTest, LoadVsRemoteWriteOtherSubBlockPiggybacks) {
  const Detector d(DetectorKind::kSubBlock, nsub());
  const auto victim = write_state(byte_mask(0, 4), nsub());
  const ByteMask probe = byte_mask(64 - 4, 4);  // last sub-block
  const ProbeCheck pc = d.check_probe(victim, probe, false);
  EXPECT_FALSE(pc.conflict);
  EXPECT_EQ(pc.piggyback, victim.bits.spec_written())
      << "the response must carry the S-WR sub-block mask";
}

TEST_P(SubBlockDetectorTest, StoreVsRemoteReadOtherSubBlockRetains) {
  const Detector d(DetectorKind::kSubBlock, nsub());
  const auto victim = read_state(byte_mask(0, 4), nsub());
  const ProbeCheck pc = d.check_probe(victim, byte_mask(64 - 4, 4), true);
  EXPECT_FALSE(pc.conflict);
  EXPECT_TRUE(pc.retain_spec_info)
      << "false WAR must keep speculative info in the invalidated line";
}

TEST_P(SubBlockDetectorTest, StoreVsRemoteReadSameSubBlockConflicts) {
  const Detector d(DetectorKind::kSubBlock, nsub());
  const auto victim = read_state(byte_mask(0, 4), nsub());
  EXPECT_TRUE(d.check_probe(victim, byte_mask(0, 4), true).conflict);
}

TEST_P(SubBlockDetectorTest, DirtyHitTriggersOnlyOnMarkedSubBlocks) {
  const Detector d(DetectorKind::kSubBlock, nsub());
  const SubBlockMask dirty0 = 1;  // sub-block 0 dirty
  EXPECT_TRUE(d.dirty_hit(dirty0, byte_mask(0, 4)));
  EXPECT_FALSE(d.dirty_hit(dirty0, byte_mask(64 - 4, 4)));
  EXPECT_FALSE(d.dirty_hit(0, byte_mask(0, 4)));
}

TEST_P(SubBlockDetectorTest, NoDirtyVariantNeverPiggybacksOrForcesMisses) {
  const Detector d(DetectorKind::kSubBlockNoDirty, nsub());
  const auto victim = write_state(byte_mask(0, 4), nsub());
  const ProbeCheck pc = d.check_probe(victim, byte_mask(64 - 4, 4), false);
  EXPECT_FALSE(pc.conflict);
  EXPECT_EQ(pc.piggyback, 0u);
  EXPECT_FALSE(d.dirty_hit(0xffff, byte_mask(0, 8)));
}

TEST_P(SubBlockDetectorTest, WawDefaultIsSubBlockGranular) {
  const Detector d(DetectorKind::kSubBlock, nsub());
  const auto victim = write_state(byte_mask(0, 4), nsub());
  const ProbeCheck pc = d.check_probe(victim, byte_mask(64 - 4, 4), true);
  EXPECT_FALSE(pc.conflict);
  EXPECT_TRUE(pc.retain_spec_info);
  EXPECT_TRUE(d.check_probe(victim, byte_mask(0, 4), true).conflict);
}

TEST_P(SubBlockDetectorTest, WawLineVariantAbortsOnAnySpecWrite) {
  const Detector d(DetectorKind::kSubBlockWawLine, nsub());
  const auto victim = write_state(byte_mask(0, 4), nsub());
  EXPECT_TRUE(d.check_probe(victim, byte_mask(64 - 4, 4), true).conflict)
      << "paper §IV-D2: losing a speculatively-written line must abort";
}

INSTANTIATE_TEST_SUITE_P(Granularities, SubBlockDetectorTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(SubBlockDetector, RejectsBadSubBlockCounts) {
  for (const auto kind :
       {DetectorKind::kSubBlock, DetectorKind::kSubBlockWawLine,
        DetectorKind::kSubBlockNoDirty}) {
    EXPECT_THROW(Detector(kind, 0), std::invalid_argument);
    EXPECT_THROW(Detector(kind, 1), std::invalid_argument);
    EXPECT_THROW(Detector(kind, 3), std::invalid_argument);   // not 2^k
    EXPECT_THROW(Detector(kind, 32), std::invalid_argument);  // > kMaxSubBlocks
    EXPECT_NO_THROW(Detector(kind, 4));
    EXPECT_NO_THROW(Detector(kind, 16));  // kMaxSubBlocks
  }
}

TEST(SubBlockDetector, CoarserGranularityConflictsMore) {
  // Adjacent 4-byte words: conflict at 2/4/8 sub-blocks, not at 16.
  const ByteMask a = byte_mask(16, 4), b = byte_mask(20, 4);
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    const Detector d(DetectorKind::kSubBlock, n);
    EXPECT_TRUE(d.check_probe(write_state(a, n), b, false).conflict) << n;
  }
  const Detector d16(DetectorKind::kSubBlock, 16);
  EXPECT_FALSE(d16.check_probe(write_state(a, 16), b, false).conflict);
}

// ---- perfect & WAR-only ------------------------------------------------------

TEST(PerfectDetector, NeverSignalsOnProbes) {
  const Detector d(DetectorKind::kPerfect, 1);
  EXPECT_TRUE(d.global_oracle());
  EXPECT_FALSE(d.check_probe(write_state(byte_mask(0, 8), 1), byte_mask(0, 8),
                             true).conflict);
}

TEST(WarOnlyDetector, FalseWarIsSpeculatedAway) {
  const Detector d(DetectorKind::kWarOnly, 1);
  const auto victim = read_state(byte_mask(0, 8), 1);
  const ProbeCheck pc = d.check_probe(victim, byte_mask(32, 8), true);
  EXPECT_FALSE(pc.conflict);
  EXPECT_TRUE(pc.retain_spec_info);
}

TEST(WarOnlyDetector, TrueWarStillAborts) {
  const Detector d(DetectorKind::kWarOnly, 1);
  const auto victim = read_state(byte_mask(0, 8), 1);
  EXPECT_TRUE(d.check_probe(victim, byte_mask(0, 4), true).conflict);
}

TEST(WarOnlyDetector, RawAndWawStayLineGranular) {
  const Detector d(DetectorKind::kWarOnly, 1);
  const auto victim = write_state(byte_mask(0, 8), 1);
  EXPECT_TRUE(d.check_probe(victim, byte_mask(32, 8), false).conflict)
      << "false RAW is NOT handled by WAR-only schemes (paper §II)";
  EXPECT_TRUE(d.check_probe(victim, byte_mask(32, 8), true).conflict);
}

// ---- classifier ----------------------------------------------------------------

TEST(Classifier, TypeAndTruthMatrix) {
  SpecState rd = read_state(byte_mask(0, 8), 4);
  SpecState wr = write_state(byte_mask(0, 8), 4);

  auto c = classify_conflict(rd, byte_mask(0, 4), true);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAR);

  c = classify_conflict(rd, byte_mask(32, 4), true);
  EXPECT_TRUE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAR);

  c = classify_conflict(wr, byte_mask(0, 4), false);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kRAW);

  c = classify_conflict(wr, byte_mask(32, 4), false);
  EXPECT_TRUE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kRAW);

  c = classify_conflict(wr, byte_mask(0, 4), true);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAW);

  c = classify_conflict(wr, byte_mask(32, 4), true);
  EXPECT_TRUE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAW);
}

TEST(Classifier, BaselineWouldConflictMatchesLineDetector) {
  // The relevant bytes are the read and write sets for a store probe and
  // the write set for a load probe; baseline ASF conflicts exactly when
  // they are non-empty, wherever in the line the probe lands.
  const Detector line(DetectorKind::kBaseline, 1);
  SpecState s;
  s.read_bytes = byte_mask(0, 8);
  s.write_bytes = byte_mask(16, 4);
  EXPECT_EQ(relevant_bytes(s, true), byte_mask(0, 8) | byte_mask(16, 4));
  EXPECT_EQ(relevant_bytes(s, false), byte_mask(16, 4));
  for (const bool victim_writes : {false, true}) {
    for (const bool invalidating : {false, true}) {
      const SpecState v = victim_writes ? write_state(byte_mask(0, 8), 1)
                                        : read_state(byte_mask(0, 8), 1);
      EXPECT_EQ(relevant_bytes(v, invalidating) != 0,
                victim_writes || invalidating);
      EXPECT_EQ(line.check_probe(v, byte_mask(32, 8), invalidating).conflict,
                victim_writes || invalidating);
    }
  }
}

TEST(Classifier, MixedReadWriteVictimPrefersWawOnOverlap) {
  SpecState s;
  s.read_bytes = byte_mask(0, 8);
  s.write_bytes = byte_mask(8, 8);
  auto c = classify_conflict(s, byte_mask(8, 4), true);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAW);
  c = classify_conflict(s, byte_mask(0, 4), true);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAR);
}

TEST(Classifier, EmptyProbeMaskNeverTrueConflicts) {
  // A degenerate probe touching no bytes cannot overlap anything: always
  // classified false, for any victim state and probe polarity.
  for (const bool invalidating : {false, true}) {
    for (const SpecState& s :
         {read_state(byte_mask(0, 64), 1), write_state(byte_mask(0, 64), 1),
          SpecState{}}) {
      EXPECT_FALSE(true_conflict(s, 0, invalidating));
      EXPECT_TRUE(classify_conflict(s, 0, invalidating).is_false);
    }
  }
}

TEST(Classifier, FullLineProbeTrueAgainstAnyNonEmptyState) {
  const ByteMask full = byte_mask(0, 64);
  auto c = classify_conflict(read_state(byte_mask(60, 4), 16), full, true);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAR);
  c = classify_conflict(write_state(byte_mask(0, 1), 16), full, true);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kWAW);
  c = classify_conflict(write_state(byte_mask(63, 1), 16), full, false);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kRAW);
  // ... but a full-line load against a read-only victim is still false:
  // loads only conflict with speculatively-written data.
  c = classify_conflict(read_state(full, 1), full, false);
  EXPECT_TRUE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kRAW);
}

TEST(Classifier, NonInvalidatingReadAgainstWriteOnlyState) {
  // Write-only victim: a remote load is RAW — true exactly on byte overlap.
  const SpecState wr = write_state(byte_mask(16, 8), 8);
  auto c = classify_conflict(wr, byte_mask(16, 8), false);
  EXPECT_FALSE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kRAW);
  c = classify_conflict(wr, byte_mask(24, 8), false);  // adjacent, disjoint
  EXPECT_TRUE(c.is_false);
  EXPECT_EQ(c.type, ConflictType::kRAW);
  // One-byte overlap at the boundary is enough to be true.
  c = classify_conflict(wr, byte_mask(23, 8), false);
  EXPECT_FALSE(c.is_false);
}

TEST(Classifier, IsFalseAgreesWithTrueConflictOverRandomMasks) {
  // classify_conflict().is_false must be the exact negation of
  // true_conflict() for any (victim, probe, polarity) — the two entry
  // points share the overlap rule and must never drift apart.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 2000; ++i) {
    SpecState s;
    s.read_bytes = static_cast<ByteMask>(next());
    s.write_bytes = static_cast<ByteMask>(next());
    const ByteMask probe = static_cast<ByteMask>(next());
    const bool invalidating = (next() & 1) != 0;
    const Classification c = classify_conflict(s, probe, invalidating);
    EXPECT_EQ(c.is_false, !true_conflict(s, probe, invalidating))
        << "rd=" << s.read_bytes << " wr=" << s.write_bytes
        << " probe=" << probe << " inv=" << invalidating;
  }
}

TEST(DetectorFactory, ProducesEveryKind) {
  for (const auto kind :
       {DetectorKind::kBaseline, DetectorKind::kSubBlock,
        DetectorKind::kSubBlockWawLine, DetectorKind::kSubBlockNoDirty,
        DetectorKind::kPerfect, DetectorKind::kWarOnly}) {
    const Detector d(kind, 4);
    EXPECT_EQ(d.kind(), kind);
  }
}

// Every (kind, nsub) the constructor accepts, pinned to the policy facts
// and report names the simulator has always used (asfsim_explore prints
// name(); MemorySystem branches on the three facts).
TEST(Detector, FactsAndNamesArePinned) {
  struct Pin {
    DetectorKind kind;
    bool global_oracle;
    bool dirty_handling;
    // Index i is nsub = 1 << i; a null name means the constructor throws.
    std::array<std::uint32_t, 5> nsub;
    std::array<const char*, 5> name;
  };
  const Pin pins[] = {
      {DetectorKind::kBaseline, false, false, {1, 1, 1, 1, 1},
       {"baseline-asf", "baseline-asf", "baseline-asf", "baseline-asf",
        "baseline-asf"}},
      {DetectorKind::kSubBlock, false, true, {0, 2, 4, 8, 16},
       {nullptr, "subblock-2", "subblock-4", "subblock-8", "subblock-16"}},
      {DetectorKind::kSubBlockWawLine, false, true, {0, 2, 4, 8, 16},
       {nullptr, "subblock-2-wawline", "subblock-4-wawline",
        "subblock-8-wawline", "subblock-16-wawline"}},
      {DetectorKind::kSubBlockNoDirty, false, false, {0, 2, 4, 8, 16},
       {nullptr, "subblock-2-nodirty", "subblock-4-nodirty",
        "subblock-8-nodirty", "subblock-16-nodirty"}},
      {DetectorKind::kPerfect, true, false, {1, 1, 1, 1, 1},
       {"perfect", "perfect", "perfect", "perfect", "perfect"}},
      {DetectorKind::kWarOnly, false, false, {1, 1, 1, 1, 1},
       {"war-only", "war-only", "war-only", "war-only", "war-only"}},
  };
  for (const Pin& p : pins) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      const std::uint32_t n = 1u << i;
      if (p.name[i] == nullptr) {
        EXPECT_THROW(Detector(p.kind, n), std::invalid_argument)
            << to_string(p.kind) << " nsub " << n;
        continue;
      }
      const Detector d(p.kind, n);
      EXPECT_EQ(d.nsub(), p.nsub[i]) << p.name[i];
      EXPECT_EQ(d.global_oracle(), p.global_oracle) << p.name[i];
      EXPECT_EQ(d.dirty_handling(), p.dirty_handling) << p.name[i];
      EXPECT_EQ(d.name(), p.name[i]) << to_string(p.kind) << " nsub " << n;
    }
  }
}

}  // namespace
}  // namespace asfsim
