// Unit tests: address math, byte masks, sub-block quantization.
#include <gtest/gtest.h>

#include "mem/addr.hpp"
#include "sim/random.hpp"

namespace asfsim {
namespace {

TEST(Addr, LineDecomposition) {
  EXPECT_EQ(line_of(0), 0u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(line_of(64), 64u);
  EXPECT_EQ(line_of(0x12345), 0x12340u);
  EXPECT_EQ(line_offset(0), 0u);
  EXPECT_EQ(line_offset(63), 63u);
  EXPECT_EQ(line_offset(64), 0u);
  EXPECT_EQ(line_offset(0x12345), 5u);
}

TEST(Addr, ByteMaskBasics) {
  EXPECT_EQ(byte_mask(0, 1), 0x1ull);
  EXPECT_EQ(byte_mask(0, 8), 0xffull);
  EXPECT_EQ(byte_mask(8, 4), 0xf00ull);
  EXPECT_EQ(byte_mask(56, 8), 0xff00000000000000ull);
  EXPECT_EQ(byte_mask(0, 64), ~ByteMask{0});
}

TEST(Addr, ByteLanesWidensEachBitToAByte) {
  for (std::uint32_t bits = 0; bits < 256; ++bits) {
    std::uint64_t want = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
      if (bits & (1u << i)) want |= std::uint64_t{0xff} << (8 * i);
    }
    ASSERT_EQ(byte_lanes(bits), want) << bits;
  }
}

TEST(Addr, ByteMaskOfAddress) {
  EXPECT_EQ(byte_mask_of(0x100, 8), 0xffull);
  EXPECT_EQ(byte_mask_of(0x104, 4), 0xfull << 4);  // bytes 4..7
  EXPECT_EQ(byte_mask_of(0x13f, 1), ByteMask{1} << 63);
}

TEST(Addr, MasksOfDisjointAccessesAreDisjoint) {
  for (std::uint32_t a = 0; a < 64; a += 8) {
    for (std::uint32_t b = 0; b < 64; b += 8) {
      if (a == b) continue;
      EXPECT_EQ(byte_mask(a, 8) & byte_mask(b, 8), 0u);
    }
  }
}

class QuantizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuantizeTest, FullLineMapsToAllSubBlocks) {
  const std::uint32_t n = GetParam();
  EXPECT_EQ(quantize(~ByteMask{0}, n), (1u << n) - 1);
}

TEST_P(QuantizeTest, SingleByteMapsToOneSubBlock) {
  const std::uint32_t n = GetParam();
  for (std::uint32_t off = 0; off < 64; ++off) {
    const SubBlockMask q = quantize(byte_mask(off, 1), n);
    EXPECT_EQ(__builtin_popcount(q), 1);
    EXPECT_EQ(q, SubBlockMask{1} << subblock_index(off, n));
  }
}

TEST_P(QuantizeTest, ExpandCoversOriginalMask) {
  const std::uint32_t n = GetParam();
  for (std::uint32_t off = 0; off < 64; off += 3) {
    const std::uint32_t size = 1 + off % 8;
    if (off + size > 64) continue;
    const ByteMask m = byte_mask(off, size);
    EXPECT_EQ(expand(quantize(m, n), n) & m, m)
        << "expansion must cover the quantized bytes";
  }
}

TEST_P(QuantizeTest, QuantizationIsMonotoneInGranularity) {
  // If two masks overlap at finer granularity they overlap at coarser too.
  const std::uint32_t n = GetParam();
  if (n == 16) return;
  for (std::uint32_t a = 0; a < 64; a += 4) {
    for (std::uint32_t b = 0; b < 64; b += 4) {
      const ByteMask ma = byte_mask(a, 4), mb = byte_mask(b, 4);
      const bool fine = (quantize(ma, 2 * n) & quantize(mb, 2 * n)) != 0;
      const bool coarse = (quantize(ma, n) & quantize(mb, n)) != 0;
      if (fine) {
        EXPECT_TRUE(coarse);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SubBlockCounts, QuantizeTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(Addr, BranchlessQuantizeMatchesLoopedReference) {
  // The production quantize() is branchless per sub-block (OR-fold +
  // multiply gather, docs/performance.md); this pins it to the obvious
  // looped definition over random masks, single-byte masks, and the
  // all/none extremes, for every sub-block count.
  const auto reference = [](ByteMask bytes, std::uint32_t nsub) {
    const std::uint32_t sub_bytes = kLineBytes / nsub;
    SubBlockMask out = 0;
    for (std::uint32_t i = 0; i < nsub; ++i) {
      if (bytes & byte_mask(i * sub_bytes, sub_bytes)) {
        out |= static_cast<SubBlockMask>(1u << i);
      }
    }
    return out;
  };
  Rng rng(99);
  for (const std::uint32_t n : {1u, 2u, 4u, 8u, 16u}) {
    EXPECT_EQ(quantize(0, n), reference(0, n));
    EXPECT_EQ(quantize(~ByteMask{0}, n), reference(~ByteMask{0}, n));
    for (std::uint32_t off = 0; off < 64; ++off) {
      const ByteMask one = byte_mask(off, 1);
      EXPECT_EQ(quantize(one, n), reference(one, n)) << off << "/" << n;
    }
    for (int trial = 0; trial < 5000; ++trial) {
      const ByteMask m = rng.next_u64();
      ASSERT_EQ(quantize(m, n), reference(m, n)) << m << "/" << n;
    }
  }
}

TEST(Addr, AdjacentWordsShareCoarseSubBlocksOnly) {
  // Two adjacent 4-byte words: same 8-byte sub-block half the time,
  // never the same 4-byte sub-block.
  const ByteMask w0 = byte_mask(16, 4), w1 = byte_mask(20, 4);
  EXPECT_NE(quantize(w0, 4) & quantize(w1, 4), 0u);   // same 16B sub-block
  EXPECT_NE(quantize(w0, 8) & quantize(w1, 8), 0u);   // same 8B sub-block
  EXPECT_EQ(quantize(w0, 16) & quantize(w1, 16), 0u);  // separate 4B blocks
}

}  // namespace
}  // namespace asfsim
