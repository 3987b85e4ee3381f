// Unit tests: BackingStore, GAllocator, Rng.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <stdexcept>

#include "mem/backing_store.hpp"
#include "mem/gallocator.hpp"
#include "sim/random.hpp"

namespace asfsim {
namespace {

TEST(BackingStore, ZeroFilledByDefault) {
  BackingStore bs;
  EXPECT_EQ(bs.read(0x1000, 8), 0u);
  EXPECT_EQ(bs.read(0xdeadbe00, 4), 0u);
  EXPECT_EQ(bs.pages_touched(), 0u);
}

TEST(BackingStore, RoundTripsAllSizes) {
  BackingStore bs;
  for (const std::uint32_t size : {1u, 2u, 4u, 8u}) {
    const Addr a = 0x2000 + size * 16;
    const std::uint64_t v = 0x1122334455667788ull;
    bs.write(a, size, v);
    const std::uint64_t mask =
        size == 8 ? ~0ull : ((1ull << (8 * size)) - 1);
    EXPECT_EQ(bs.read(a, size), v & mask);
  }
}

TEST(BackingStore, NeighboringBytesUntouched) {
  BackingStore bs;
  bs.write(0x3000, 8, ~0ull);
  bs.write(0x3004, 1, 0);
  EXPECT_EQ(bs.read(0x3000, 4), 0xffffffffu);
  EXPECT_EQ(bs.read(0x3004, 1), 0u);
  EXPECT_EQ(bs.read(0x3005, 1), 0xffu);
}

TEST(BackingStore, SparsePagesAllocateOnWrite) {
  BackingStore bs;
  bs.write(0x10000, 8, 1);
  bs.write(0x900000, 8, 2);
  EXPECT_EQ(bs.pages_touched(), 2u);
  EXPECT_EQ(bs.read(0x10000, 8), 1u);
  EXPECT_EQ(bs.read(0x900000, 8), 2u);
}

TEST(BackingStore, WriteLineMatchesByteWiseWrites) {
  // Full, sparse (runs and isolated bytes at both ends) and single-byte
  // masks over a pre-filled line, against a byte-wise reference store.
  Rng rng(11);
  std::array<std::uint8_t, kLineBytes> data{};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (const ByteMask mask :
       {~ByteMask{0}, ByteMask{0x8000'0000'0000'0001}, ByteMask{0x00ff'0f00},
        ByteMask{0xf0f0'f0f0'f0f0'f0f0}, ByteMask{1} << 63, ByteMask{1},
        ByteMask{0x7fff'ffff'ffff'fffe}}) {
    SCOPED_TRACE(mask);
    const Addr line = 0x5000 + 3 * kLineBytes;
    BackingStore got;
    BackingStore want;
    for (std::uint32_t b = 0; b < kLineBytes; b += 8) {
      got.write(line + b, 8, 0xa5a5a5a5a5a5a5a5ull);
      want.write(line + b, 8, 0xa5a5a5a5a5a5a5a5ull);
    }
    got.write_line(line, mask, data.data());
    for (std::uint32_t b = 0; b < kLineBytes; ++b) {
      if (mask & (ByteMask{1} << b)) want.write(line + b, 1, data[b]);
    }
    for (std::uint32_t b = 0; b < kLineBytes; ++b) {
      ASSERT_EQ(got.read(line + b, 1), want.read(line + b, 1)) << "byte " << b;
    }
    // Neighboring lines stay untouched.
    EXPECT_EQ(got.read(line - 8, 8), 0u);
    EXPECT_EQ(got.read(line + kLineBytes, 8), 0u);
  }
}

TEST(BackingStore, WriteLineWithEmptyMaskCreatesNoPage) {
  BackingStore bs;
  const std::array<std::uint8_t, kLineBytes> data{1, 2, 3};
  bs.write_line(0x7000, 0, data.data());
  EXPECT_EQ(bs.pages_touched(), 0u);
  bs.write_line(0x7000, 0b100, data.data());
  EXPECT_EQ(bs.pages_touched(), 1u);
  EXPECT_EQ(bs.read(0x7000, 4), 0x030000u);
}

TEST(BackingStore, MatchesAByteMapUnderRandomAccesses) {
  // Random writes of every size 1..8 and masked write_lines over a few
  // pages spread across two leaves, checked against a per-byte reference.
  Rng rng(29);
  BackingStore bs;
  std::map<Addr, std::uint8_t> ref;
  const auto ref_read = [&](Addr a, std::uint32_t size) {
    std::uint64_t v = 0;
    for (std::uint32_t b = 0; b < size; ++b) {
      const auto it = ref.find(a + b);
      if (it != ref.end()) v |= std::uint64_t{it->second} << (8 * b);
    }
    return v;
  };
  const std::array<Addr, 4> bases = {0, 0x3000, 0x1ff000, 0x200000};
  const auto random_addr = [&](std::uint32_t size) {
    const Addr base = bases[rng.below(bases.size())];
    const Addr off = rng.below(BackingStore::kPageBytes - size + 1);
    return base + off;
  };
  for (int i = 0; i < 20000; ++i) {
    const auto size = static_cast<std::uint32_t>(1 + rng.below(8));
    const Addr a = random_addr(size);
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t v = rng.next_u64();
        bs.write(a, size, v);
        for (std::uint32_t b = 0; b < size; ++b) {
          ref[a + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
        break;
      }
      case 1: {
        const Addr line = line_of(a);
        const ByteMask mask = rng.next_u64() & rng.next_u64();
        std::array<std::uint8_t, kLineBytes> data{};
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
        bs.write_line(line, mask, data.data());
        for (std::uint32_t b = 0; b < kLineBytes; ++b) {
          if (mask & (ByteMask{1} << b)) ref[line + b] = data[b];
        }
        break;
      }
      default:
        ASSERT_EQ(bs.read(a, size), ref_read(a, size))
            << "read of " << size << " at " << a;
    }
  }
  for (const Addr base : bases) {
    for (Addr a = base; a < base + BackingStore::kPageBytes; a += 8) {
      ASSERT_EQ(bs.read(a, 8), ref_read(a, 8)) << "at " << a;
    }
  }
}

TEST(BackingStore, PageAndLeafBoundaries) {
  constexpr Addr kPage = BackingStore::kPageBytes;
  constexpr Addr kLeaf = kPage * BackingStore::kLeafPages;  // 2 MB
  static_assert(kLeaf == Addr{2} << 20);
  const std::array<Addr, 5> edges = {kPage, kLeaf, 2 * kLeaf,
                                     kAddrLimit - kPage,
                                     kAddrLimit};
  BackingStore bs;
  bs.write(0, 8, 0x0102030405060708ull);
  std::uint64_t v = 1;
  for (const Addr e : edges) {
    // The last 8 bytes below the edge and the first 8 at it sit on
    // different pages (and, past the 2 MB edges, different leaves).
    bs.write(e - 8, 8, v);
    if (e < kAddrLimit) bs.write(e, 8, ~v);
    ++v;
  }
  EXPECT_EQ(bs.read(0, 8), 0x0102030405060708ull);
  v = 1;
  for (const Addr e : edges) {
    SCOPED_TRACE(e);
    EXPECT_EQ(bs.read(e - 8, 8), v);
    EXPECT_EQ(bs.read(e - 1, 1), 0u);  // top byte of v
    if (e < kAddrLimit) {
      EXPECT_EQ(bs.read(e, 8), ~v);
      EXPECT_EQ(bs.read(e + 8, 8), 0u);
    }
    ++v;
  }
  // Pages 0 and 1 for the first edge, two per 2 MB edge, two for the last
  // page below the limit; the limit's own `e - 8` shares that last page.
  EXPECT_EQ(bs.pages_touched(), 8u);
  EXPECT_THROW(bs.write(kAddrLimit, 8, 1), std::out_of_range);
  EXPECT_EQ(bs.read(kAddrLimit, 8), 0u);
}

TEST(BackingStore, ReadsOfAbsentMemoryAllocateNothing) {
  BackingStore bs;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const Addr a = rng.next_u64() & ~Addr{7};
    ASSERT_EQ(bs.read(a, 8), 0u);
  }
  EXPECT_EQ(bs.read(kAddrLimit - 8, 8), 0u);
  EXPECT_EQ(bs.read(~Addr{7}, 8), 0u);
  EXPECT_EQ(bs.pages_touched(), 0u);
  // A written page next to absent ones: reads around it still allocate
  // nothing more.
  bs.write(0x400000, 4, 7);
  EXPECT_EQ(bs.read(0x400000 + BackingStore::kPageBytes, 8), 0u);
  EXPECT_EQ(bs.read(0x400000 - 8, 8), 0u);
  EXPECT_EQ(bs.pages_touched(), 1u);
}

TEST(GAllocator, RespectsAlignment) {
  GAllocator ga;
  EXPECT_EQ(ga.alloc(3, 8) % 8, 0u);
  EXPECT_EQ(ga.alloc(1, 64) % 64, 0u);
  EXPECT_EQ(ga.alloc_lines(2) % kLineBytes, 0u);
  EXPECT_THROW(ga.alloc(8, 3), std::invalid_argument);
}

TEST(GAllocator, AllocationsDoNotOverlap) {
  GAllocator ga;
  const Addr a = ga.alloc(24, 8);
  const Addr b = ga.alloc(24, 8);
  EXPECT_GE(b, a + 24);
}

TEST(GAllocator, MallocLikePackingSharesLines) {
  // The whole point: unpadded small allocations land in the same line.
  GAllocator ga;
  const Addr a = ga.alloc(8, 8);
  const Addr b = ga.alloc(8, 8);
  EXPECT_EQ(line_of(a), line_of(b));
}

TEST(GAllocator, PerCoreArenasNeverShareLines) {
  GAllocator ga;
  std::set<Addr> lines0, lines1;
  for (int i = 0; i < 300; ++i) {
    lines0.insert(line_of(ga.alloc_local(0, 24)));
    lines1.insert(line_of(ga.alloc_local(1, 24)));
  }
  for (const Addr l : lines0) {
    EXPECT_EQ(lines1.count(l), 0u)
        << "core pools must be cache-line disjoint";
  }
}

TEST(GAllocator, ArenaRefillKeepsAlignment) {
  GAllocator ga;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ga.alloc_local(2, 48, 16) % 16, 0u);
  }
}

TEST(GAllocator, OutOfMemoryThrows) {
  GAllocator ga(0x10000, 0x20000);
  EXPECT_THROW(ga.alloc(1 << 20), std::runtime_error);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(13), 13u);
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
}

}  // namespace
}  // namespace asfsim
