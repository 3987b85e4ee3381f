// Randomized cross-checks: detector decisions are re-derived from first
// principles (brute-force per-sub-block reasoning over the byte masks) for
// thousands of random speculative states and probes.
#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "core/detector.hpp"
#include "sim/random.hpp"

namespace asfsim {
namespace {

/// A random aligned access mask (size 1..8 bytes).
ByteMask random_access(Rng& rng) {
  const std::uint32_t size = 1u << rng.below(4);  // 1,2,4,8
  const std::uint32_t off = static_cast<std::uint32_t>(
      rng.below(64 / size) * size);
  return byte_mask(off, size);
}

SpecState random_state(Rng& rng, std::uint32_t nsub) {
  SpecState s;
  const std::uint32_t nreads = static_cast<std::uint32_t>(rng.below(4));
  const std::uint32_t nwrites = static_cast<std::uint32_t>(rng.below(3));
  for (std::uint32_t i = 0; i < nreads; ++i) s.read_bytes |= random_access(rng);
  for (std::uint32_t i = 0; i < nwrites; ++i) {
    s.write_bytes |= random_access(rng);
  }
  s.bits.spec = quantize(s.read_bytes | s.write_bytes, nsub);
  s.bits.wr = quantize(s.write_bytes, nsub);
  return s;
}

class CrossCheck : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CrossCheck, SubBlockDetectorMatchesBruteForce) {
  const std::uint32_t nsub = GetParam();
  const Detector det(DetectorKind::kSubBlock, nsub);
  Rng rng(nsub * 1000 + 17);
  for (int trial = 0; trial < 4000; ++trial) {
    const SpecState victim = random_state(rng, nsub);
    const ByteMask probe = random_access(rng);
    const bool invalidating = rng.chance(0.5);
    const ProbeCheck pc = det.check_probe(victim, probe, invalidating);

    // Brute force: walk every sub-block.
    bool expect_conflict = false;
    SubBlockMask expect_pb = 0;
    const std::uint32_t sub_bytes = 64 / nsub;
    for (std::uint32_t i = 0; i < nsub; ++i) {
      const ByteMask sub = byte_mask(i * sub_bytes, sub_bytes);
      const bool p = (probe & sub) != 0;
      const bool swr = (victim.bits.spec_written() >> i) & 1;
      const bool srd = (victim.bits.spec_read_only() >> i) & 1;
      if (invalidating) {
        if (p && (swr || srd)) expect_conflict = true;
      } else {
        if (p && swr) expect_conflict = true;
        if (swr) expect_pb |= SubBlockMask{1} << i;
      }
    }
    EXPECT_EQ(pc.conflict, expect_conflict)
        << "trial " << trial << " inv=" << invalidating;
    if (!invalidating && !expect_conflict) {
      EXPECT_EQ(pc.piggyback, expect_pb) << "trial " << trial;
    }
    if (invalidating && !expect_conflict) {
      EXPECT_EQ(pc.retain_spec_info, victim.bits.speculative() != 0)
          << "trial " << trial;
    }
  }
}

TEST_P(CrossCheck, WawLineVariantOnlyAddsWawConflicts) {
  const std::uint32_t nsub = GetParam();
  const Detector def(DetectorKind::kSubBlock, nsub);
  const Detector strict(DetectorKind::kSubBlockWawLine, nsub);
  Rng rng(nsub * 777 + 3);
  for (int trial = 0; trial < 3000; ++trial) {
    const SpecState victim = random_state(rng, nsub);
    const ByteMask probe = random_access(rng);
    const bool invalidating = rng.chance(0.5);
    const bool d = def.check_probe(victim, probe, invalidating).conflict;
    const bool s = strict.check_probe(victim, probe, invalidating).conflict;
    // Strict is a superset of default...
    if (d) {
      EXPECT_TRUE(s) << "strict must contain default";
    }
    // ...and the extra conflicts are exactly invalidating probes against
    // lines holding S-WR sub-blocks the probe does not touch.
    if (s && !d) {
      EXPECT_TRUE(invalidating);
      EXPECT_NE(victim.bits.spec_written(), 0u);
    }
  }
}

TEST_P(CrossCheck, FinerGranularityNeverAddsConflicts) {
  const std::uint32_t nsub = GetParam();
  if (nsub == 16) return;
  const Detector coarse(DetectorKind::kSubBlock, nsub);
  const Detector fine(DetectorKind::kSubBlock, nsub * 2);
  Rng rng(nsub * 99 + 1);
  for (int trial = 0; trial < 3000; ++trial) {
    // Build the SAME byte-level state at the two granularities.
    SpecState base = random_state(rng, 16);
    SpecState vc = base, vf = base;
    vc.bits.spec = quantize(base.read_bytes | base.write_bytes, nsub);
    vc.bits.wr = quantize(base.write_bytes, nsub);
    vf.bits.spec = quantize(base.read_bytes | base.write_bytes, nsub * 2);
    vf.bits.wr = quantize(base.write_bytes, nsub * 2);
    const ByteMask probe = random_access(rng);
    const bool invalidating = rng.chance(0.5);
    const bool c = coarse.check_probe(vc, probe, invalidating).conflict;
    const bool f = fine.check_probe(vf, probe, invalidating).conflict;
    if (f) {
      EXPECT_TRUE(c) << "a fine-grained conflict implies a coarse one";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, CrossCheck,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(CrossCheckLine, BaselineEqualsOneSubBlock) {
  // The baseline per-line SR/SW check must agree with "sub-blocking at
  // granularity 1" semantics: the whole line is one sub-block, SPEC when
  // any byte was read or written, WR when any byte was written. A load
  // probe conflicts with S-WR, a store probe with S-RD or S-WR, wherever
  // the probe's bytes land; the baseline never piggybacks or retains.
  const Detector line(DetectorKind::kBaseline, 1);
  Rng rng(5);
  for (int trial = 0; trial < 4000; ++trial) {
    const SpecState victim = random_state(rng, 1);
    const ByteMask probe = random_access(rng);
    const bool invalidating = rng.chance(0.5);
    const bool spec = (victim.read_bytes | victim.write_bytes) != 0;
    const bool wr = victim.write_bytes != 0;
    const bool expect = invalidating ? spec : wr;
    const ProbeCheck pc = line.check_probe(victim, probe, invalidating);
    EXPECT_EQ(pc.conflict, expect) << "trial " << trial;
    EXPECT_EQ(pc.piggyback, 0u) << "trial " << trial;
    EXPECT_FALSE(pc.retain_spec_info) << "trial " << trial;
  }
}

TEST(CrossCheckTruth, TrueConflictImpliesDetectionEverywhere) {
  // No detector may MISS a true (byte-overlap) conflict on a probe it sees.
  const Detector line(DetectorKind::kBaseline, 1);
  const Detector war(DetectorKind::kWarOnly, 1);
  Rng rng(11);
  for (const std::uint32_t nsub : {2u, 4u, 8u, 16u}) {
    const Detector sub(DetectorKind::kSubBlock, nsub);
    for (int trial = 0; trial < 2000; ++trial) {
      const SpecState victim = random_state(rng, nsub);
      const ByteMask probe = random_access(rng);
      const bool invalidating = rng.chance(0.5);
      if (!true_conflict(victim, probe, invalidating)) continue;
      EXPECT_TRUE(line.check_probe(victim, probe, invalidating).conflict);
      EXPECT_TRUE(sub.check_probe(victim, probe, invalidating).conflict);
      EXPECT_TRUE(war.check_probe(victim, probe, invalidating).conflict);
    }
  }
}

}  // namespace
}  // namespace asfsim
