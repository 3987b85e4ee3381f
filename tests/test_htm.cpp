// Unit tests: AsfRuntime — overlay versioning, commit/abort, dooming,
// backoff, fallback accounting.
#include <gtest/gtest.h>

#include <array>

#include "guest/machine.hpp"
#include "htm/backoff.hpp"
#include "sim/random.hpp"

namespace asfsim {
namespace {

class HtmTest : public ::testing::Test {
 protected:
  HtmTest() : m_(make_cfg(), DetectorKind::kSubBlock, 4) {
    a_ = m_.galloc().alloc_lines(1);
    m_.poke(a_, 8, 100);
    m_.poke(a_ + 8, 8, 200);
  }
  static SimConfig make_cfg() {
    SimConfig c;
    c.ncores = 2;
    return c;
  }
  Machine m_;
  Addr a_ = 0;
};

TEST_F(HtmTest, SpeculativeWritesAreBufferedUntilCommit) {
  AsfRuntime& rt = m_.runtime();
  rt.begin(0);
  rt.write_value(0, a_, 8, 111);
  EXPECT_EQ(m_.peek(a_, 8), 100u) << "committed memory unchanged";
  EXPECT_EQ(rt.read_value(0, a_, 8), 111u) << "own overlay wins";
  EXPECT_EQ(rt.read_value(1, a_, 8), 100u) << "other cores see old data";
  rt.commit(0);
  EXPECT_EQ(m_.peek(a_, 8), 111u);
  EXPECT_EQ(rt.overlay_lines(0), 0u);
}

TEST_F(HtmTest, AbortDiscardsTheOverlay) {
  AsfRuntime& rt = m_.runtime();
  rt.begin(0);
  rt.write_value(0, a_, 8, 111);
  rt.self_doom(0, AbortCause::kUser);
  EXPECT_TRUE(rt.doomed(0));
  EXPECT_EQ(rt.finish_abort(0), 1u);
  EXPECT_EQ(m_.peek(a_, 8), 100u);
  EXPECT_FALSE(rt.active(0));
  EXPECT_EQ(m_.stats().aborts_by_cause[static_cast<int>(AbortCause::kUser)],
            1u);
}

TEST_F(HtmTest, OverlayMergesPartialBytes) {
  AsfRuntime& rt = m_.runtime();
  rt.begin(0);
  rt.write_value(0, a_ + 2, 2, 0xBEEF);
  // Reading 8 bytes: committed value 100 with bytes 2..3 overlaid.
  const std::uint64_t expect = (100ull & ~0xffff0000ull) | (0xBEEFull << 16);
  EXPECT_EQ(rt.read_value(0, a_, 8), expect);
  rt.commit(0);
  EXPECT_EQ(m_.peek(a_, 8), expect);
}

TEST_F(HtmTest, OverlayMergeMatchesAPerByteModel) {
  // Random transactional writes and reads of every size at every offset of
  // two lines, over random committed bytes, against a per-byte
  // model of committed memory plus the overlay. Reads come both before and
  // after writes to the same bytes, so every overlay-mask shape is merged.
  AsfRuntime& rt = m_.runtime();
  const Addr base = m_.galloc().alloc_lines(2);
  constexpr std::uint32_t kBytes = 2 * kLineBytes;
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    std::array<std::uint8_t, kBytes> committed{};
    for (std::uint32_t b = 0; b < kBytes; b += 8) {
      const std::uint64_t v = rng.next_u64();
      m_.poke(base + b, 8, v);
      for (std::uint32_t k = 0; k < 8; ++k) {
        committed[b + k] = static_cast<std::uint8_t>(v >> (8 * k));
      }
    }
    std::array<std::uint8_t, kBytes> model = committed;
    const auto model_read = [&](std::uint32_t off, std::uint32_t size) {
      std::uint64_t v = 0;
      for (std::uint32_t k = 0; k < size; ++k) {
        v |= std::uint64_t{model[off + k]} << (8 * k);
      }
      return v;
    };
    rt.begin(0);
    for (int op = 0; op < 40; ++op) {
      // Any size 1..8 at any offset that keeps the access inside a line.
      const auto size = static_cast<std::uint32_t>(1 + rng.below(8));
      const auto off = static_cast<std::uint32_t>(
          kLineBytes * rng.below(2) + rng.below(kLineBytes - size + 1));
      if (rng.below(2) == 0) {
        const std::uint64_t v = rng.next_u64();
        rt.write_value(0, base + off, size, v);
        for (std::uint32_t k = 0; k < size; ++k) {
          model[off + k] = static_cast<std::uint8_t>(v >> (8 * k));
        }
      } else {
        ASSERT_EQ(rt.read_value(0, base + off, size), model_read(off, size))
            << "round " << round << ", read of " << size << " at +" << off;
        // Another core sees only committed bytes.
        std::uint64_t old = 0;
        for (std::uint32_t k = 0; k < size; ++k) {
          old |= std::uint64_t{committed[off + k]} << (8 * k);
        }
        ASSERT_EQ(rt.read_value(1, base + off, size), old);
      }
    }
    for (std::uint32_t off = 0; off < kBytes; off += 8) {
      ASSERT_EQ(rt.read_value(0, base + off, 8), model_read(off, 8));
    }
    rt.commit(0);
    for (std::uint32_t off = 0; off < kBytes; off += 8) {
      ASSERT_EQ(m_.peek(base + off, 8), model_read(off, 8)) << "after commit";
    }
  }
}

TEST_F(HtmTest, DoomViaConflictRecordsCauseAndClearsSpec) {
  AsfRuntime& rt = m_.runtime();
  rt.begin(0);
  m_.mem().access(0, a_, 8, true, true);
  rt.write_value(0, a_, 8, 5);
  ConflictRecord rec;
  rec.victim = 0;
  rt.doom(0, rec);
  EXPECT_TRUE(rt.doomed(0));
  EXPECT_EQ(rt.doom_cause(0), AbortCause::kConflict);
  EXPECT_EQ(m_.mem().spec_state(0, line_of(a_)), nullptr);
  EXPECT_FALSE(rt.in_tx(0)) << "doomed transactions stop conflicting";
  rt.finish_abort(0);
}

TEST_F(HtmTest, RetriesAccumulateAndResetOnCommit) {
  AsfRuntime& rt = m_.runtime();
  for (int i = 1; i <= 3; ++i) {
    rt.begin(0);
    rt.self_doom(0, AbortCause::kUser);
    EXPECT_EQ(rt.finish_abort(0), static_cast<std::uint32_t>(i));
  }
  rt.begin(0);
  rt.commit(0);
  rt.reset_retries(0);
  EXPECT_EQ(rt.retries(0), 0u);
}

TEST_F(HtmTest, CommitCountsAndBusyCyclesTracked) {
  AsfRuntime& rt = m_.runtime();
  rt.begin(0);
  rt.commit(0);
  EXPECT_EQ(m_.stats().tx_commits, 1u);
  EXPECT_EQ(m_.stats().tx_attempts, 1u);
}

TEST(Backoff, GrowsExponentiallyAndSaturates) {
  SimConfig cfg;
  cfg.backoff_base = 32;
  cfg.backoff_cap_shift = 4;
  BackoffManager b(cfg, 1);
  Cycle prev_max = 0;
  for (std::uint32_t retry = 0; retry < 10; ++retry) {
    const Cycle window = cfg.backoff_base << std::min(retry, 4u);
    Cycle lo = ~Cycle{0}, hi = 0;
    for (int i = 0; i < 64; ++i) {
      const Cycle w = b.wait_for(retry);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    EXPECT_GE(lo, window / 2);
    EXPECT_LE(hi, window);
    if (retry <= 4) {
      EXPECT_GE(hi, prev_max);
    }
    prev_max = hi;
  }
}

// ---- software fallback (lock elision) ---------------------------------------

namespace fallback {

// A transaction whose footprint can never fit a 2-way set: three lines
// exactly one L1-way-stride apart.
Task<void> big_tx(GuestCtx& c, Addr base, int* fallbacks_seen) {
  const Addr stride = 512 * kLineBytes;  // same set in the 512-set L1
  co_await c.run_tx([&]() -> Task<void> {
    co_await c.store_u64(base, 1);
    co_await c.store_u64(base + stride, 2);
    co_await c.store_u64(base + 2 * stride, 3);
  });
  *fallbacks_seen = 1;
}

}  // namespace fallback

TEST(Fallback, OversizedTransactionCompletesViaSerialFallback) {
  SimConfig cfg;
  cfg.ncores = 1;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr base = m.galloc().alloc(3 * 512 * kLineBytes + 64, 64);
  int done = 0;
  m.spawn(0, fallback::big_tx(m.ctx(0), base, &done));
  m.run(10'000'000);
  EXPECT_EQ(done, 1);
  EXPECT_GE(m.stats().fallback_runs, 1u);
  EXPECT_GE(m.stats().aborts_by_cause[static_cast<int>(AbortCause::kCapacity)],
            3u);
  EXPECT_EQ(m.peek(base, 8), 1u);
  EXPECT_EQ(m.peek(base + 512 * kLineBytes, 8), 2u);
  EXPECT_EQ(m.peek(base + 1024 * kLineBytes, 8), 3u);
}

namespace fallback {

Task<void> small_txs(GuestCtx& c, Addr cell, int n) {
  for (int i = 0; i < n; ++i) {
    co_await c.run_tx([&]() -> Task<void> {
      const std::uint64_t v = co_await c.load_u64(cell);
      co_await c.store_u64(cell, v + 1);
    });
  }
}

}  // namespace fallback

TEST(Fallback, LockHolderExcludesConcurrentTransactions) {
  // One core runs the oversized fallback transaction while another hammers
  // a counter; the counter total must still be exact (the fallback body is
  // atomic with respect to subscribed transactions).
  SimConfig cfg;
  cfg.ncores = 2;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr base = m.galloc().alloc(3 * 512 * kLineBytes + 64, 64);
  const Addr cell = m.galloc().alloc(64, 64);
  m.poke(cell, 8, 0);
  int done = 0;
  m.spawn(0, fallback::big_tx(m.ctx(0), base, &done));
  m.spawn(1, fallback::small_txs(m.ctx(1), cell, 200));
  m.run(50'000'000);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(m.peek(cell, 8), 200u);
}

}  // namespace
}  // namespace asfsim
