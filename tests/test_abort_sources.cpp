// One abort path (docs/performance.md, optimization 5): every abort source
// reaches the run_tx/try_tx retry loop through the attempt's abort scope,
// with no C++ exception. One tiny 2–4-core program per source checks the
// per-cause abort counts, the commits, the fallback runs and the final
// cycle. Counts that follow from the program itself are asserted as such;
// the rest, and every final cycle, are pinned: they equal what the
// exception-based abort path this one replaced produced, so they also prove
// that each abort surfaces at the same simulated cycle as before. The body
// chains are three frames deep, so every abort abandons real suspended
// frames; AbandonedFramesAreDestroyed checks that each one dies.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <stdexcept>

#include "guest/machine.hpp"

namespace asfsim {
namespace {

struct Outcome {
  std::array<std::uint64_t, 4> aborts{};  // indexed by AbortCause
  std::uint64_t commits = 0;
  std::uint64_t fallbacks = 0;
  Cycle cycles = 0;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& o, std::ostream* os) {
  *os << "{aborts conflict/capacity/user/lock-wait " << o.aborts[0] << "/"
      << o.aborts[1] << "/" << o.aborts[2] << "/" << o.aborts[3]
      << ", commits " << o.commits << ", fallbacks " << o.fallbacks
      << ", cycles " << o.cycles << "}";
}

Outcome outcome_of(const Machine& m) {
  const Stats& s = m.stats();
  return {s.aborts_by_cause, s.tx_commits, s.fallback_runs, s.total_cycles};
}

std::uint64_t aborts(const Outcome& o, AbortCause cause) {
  return o.aborts[static_cast<std::size_t>(cause)];
}

SimConfig small_cfg(std::uint32_t ncores) {
  SimConfig cfg;
  cfg.ncores = ncores;
  return cfg;
}

// ---- guest programs --------------------------------------------------------

Task<std::uint64_t> leaf_load(GuestCtx& c, Addr a) {
  const std::uint64_t v = co_await c.load_u64(a);
  co_return v;
}

Task<void> bump(GuestCtx& c, Addr cell, Cycle think) {
  const std::uint64_t v = co_await leaf_load(c, cell);
  co_await c.work(think);
  co_await c.store_u64(cell, v + 1);
}

/// `n` transactions, each incrementing `cell` once.
Task<void> bumper(GuestCtx& c, Addr cell, int n, Cycle think) {
  for (int i = 0; i < n; ++i) {
    co_await c.run_tx([&]() -> Task<void> { co_await bump(c, cell, think); });
  }
}

Task<void> store_chain(GuestCtx& c, Addr base, Addr stride, int lines) {
  for (int i = 0; i < lines; ++i) {
    co_await c.store_u64(base + static_cast<Addr>(i) * stride,
                         static_cast<std::uint64_t>(i + 1));
  }
}

/// `n` transactions that each write `lines` lines `stride` bytes apart.
Task<void> wide_writer(GuestCtx& c, Addr base, Addr stride, int lines, int n) {
  for (int i = 0; i < n; ++i) {
    co_await c.run_tx([&]() -> Task<void> {
      co_await store_chain(c, base, stride, lines);
    });
  }
}

/// Non-transactional stores to `cell`, one every `gap` cycles, after a
/// `delay`: each one dooms a transaction that has `cell` in its read set.
Task<void> poker(GuestCtx& c, Addr cell, Cycle delay, int n, Cycle gap) {
  co_await c.work(delay);
  for (int i = 0; i < n; ++i) {
    co_await c.store_u64(cell, 1000 + static_cast<std::uint64_t>(i));
    co_await c.work(gap);
  }
}

/// One 64-byte line per core, so only the source under test aborts.
Addr own_lines(Machine& m, std::uint32_t n) {
  const Addr base = m.galloc().alloc(n * kLineBytes, kLineBytes);
  for (std::uint32_t i = 0; i < n; ++i) m.poke(base + i * kLineBytes, 8, 0);
  return base;
}

// ---- capacity --------------------------------------------------------------

TEST(AbortSources, CapacityOnAShrunkenL1) {
  // A 2-set, 2-way L1: three lines two apart share a set and can never all
  // stay speculative, so every hardware attempt aborts on capacity until
  // the fallback lock serializes the transaction.
  SimConfig cfg = small_cfg(2);
  cfg.l1.size_bytes = 4 * kLineBytes;
  cfg.max_capacity_aborts = 4;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr wide = m.galloc().alloc(6 * kLineBytes, kLineBytes);
  const Addr cell = own_lines(m, 1);
  m.spawn(0, wide_writer(m.ctx(0), wide, 2 * kLineBytes, 3, 1));
  m.spawn(1, bumper(m.ctx(1), cell, 20, 5));
  m.run(10'000'000);
  const Outcome o = outcome_of(m);
  EXPECT_EQ(aborts(o, AbortCause::kCapacity), 4u);
  EXPECT_EQ(o.fallbacks, 1u);
  EXPECT_EQ(o.commits, 21u);
  EXPECT_EQ(m.peek(wide + 4 * kLineBytes, 8), 3u);
  EXPECT_EQ(m.peek(cell, 8), 20u);
  EXPECT_EQ(o, (Outcome{{0, 4, 0, 0}, 21, 1, 3633}));
}

// ---- injected faults -------------------------------------------------------

Outcome run_faulted(const FaultConfig& fault, FaultCounters* injected) {
  SimConfig cfg = small_cfg(2);
  cfg.fault = fault;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr cells = own_lines(m, 2);
  m.spawn(0, bumper(m.ctx(0), cells, 40, 20));
  m.spawn(1, bumper(m.ctx(1), cells + kLineBytes, 40, 20));
  m.run(50'000'000);
  EXPECT_EQ(m.peek(cells, 8), 40u);
  EXPECT_EQ(m.peek(cells + kLineBytes, 8), 40u);
  *injected = m.fault_plan()->counters();
  return outcome_of(m);
}

TEST(AbortSources, SpuriousFault) {
  FaultConfig fault;
  fault.spurious_abort_rate = 0.1;
  FaultCounters injected;
  const Outcome o = run_faulted(fault, &injected);
  EXPECT_GT(injected.spurious_aborts, 0u);
  EXPECT_EQ(aborts(o, AbortCause::kConflict), injected.spurious_aborts);
  EXPECT_EQ(o.commits, 80u);
  EXPECT_EQ(o, (Outcome{{27, 0, 0, 0}, 80, 0, 4328}));
}

TEST(AbortSources, CommitFault) {
  FaultConfig fault;
  fault.commit_abort_rate = 0.2;
  FaultCounters injected;
  const Outcome o = run_faulted(fault, &injected);
  EXPECT_GT(injected.commit_aborts, 0u);
  EXPECT_EQ(aborts(o, AbortCause::kConflict), injected.commit_aborts);
  EXPECT_EQ(o.commits, 80u);
  EXPECT_EQ(o, (Outcome{{28, 0, 0, 0}, 80, 0, 7453}));
}

TEST(AbortSources, EvictFault) {
  FaultConfig fault;
  fault.evict_rate = 0.1;
  FaultCounters injected;
  const Outcome o = run_faulted(fault, &injected);
  EXPECT_GT(injected.forced_evictions, 0u);
  EXPECT_EQ(aborts(o, AbortCause::kCapacity), injected.forced_evictions);
  EXPECT_EQ(o.commits, 80u);
  EXPECT_EQ(o, (Outcome{{0, 14, 0, 0}, 80, 0, 3624}));
}

// ---- requester-lost under a contention policy ------------------------------

Outcome run_contended(CmPolicyKind policy, std::uint64_t* requester_losses) {
  SimConfig cfg = small_cfg(4);
  cfg.cm.policy = policy;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr cell = own_lines(m, 1);
  for (CoreId c = 0; c < 4; ++c) m.spawn(c, bumper(m.ctx(c), cell, 25, 30));
  m.run(50'000'000);
  EXPECT_EQ(m.peek(cell, 8), 100u) << "every increment exactly once";
  *requester_losses = m.stats().cm_requester_losses;
  return outcome_of(m);
}

TEST(AbortSources, RequesterLostUnderPolite) {
  std::uint64_t losses = 0;
  const Outcome o = run_contended(CmPolicyKind::kPolite, &losses);
  EXPECT_GT(losses, 0u);
  EXPECT_GE(aborts(o, AbortCause::kConflict), losses);
  EXPECT_EQ(o.commits, 100u);
  EXPECT_EQ(o, (Outcome{{90, 0, 0, 0}, 100, 0, 14363}));
}

TEST(AbortSources, RequesterLostUnderTimestamp) {
  std::uint64_t losses = 0;
  const Outcome o = run_contended(CmPolicyKind::kTimestamp, &losses);
  EXPECT_GT(losses, 0u);
  EXPECT_GE(aborts(o, AbortCause::kConflict), losses);
  EXPECT_EQ(o.commits, 100u);
  EXPECT_EQ(o, (Outcome{{150, 0, 0, 0}, 100, 0, 12495}));
}

// ---- guest-requested -------------------------------------------------------

Task<void> abort_then_bump(GuestCtx& c, Addr cell, int* refusals) {
  if (*refusals > 0) {
    --*refusals;
    co_await c.abort_tx();
  }
  co_await bump(c, cell, 10);
}

TEST(AbortSources, AbortTxRetriesUnderRunTxAndFailsTryTx) {
  Machine m(small_cfg(2), DetectorKind::kSubBlock, 4);
  const Addr cells = own_lines(m, 2);
  int run_refusals = 3;
  int try_refusals = 1;
  int try_results = 0;  // bit i set: the i-th try_tx committed
  m.spawn(0, [](GuestCtx& c, Addr cell, int* refusals) -> Task<void> {
    co_await c.run_tx([&]() -> Task<void> {
      co_await abort_then_bump(c, cell, refusals);
    });
  }(m.ctx(0), cells, &run_refusals));
  m.spawn(1, [](GuestCtx& c, Addr cell, int* refusals,
                int* results) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      const bool committed = co_await c.try_tx([&]() -> Task<void> {
        co_await abort_then_bump(c, cell, refusals);
      });
      if (committed) *results |= 1 << i;
    }
  }(m.ctx(1), cells + kLineBytes, &try_refusals, &try_results));
  m.run(10'000'000);
  const Outcome o = outcome_of(m);
  EXPECT_EQ(aborts(o, AbortCause::kUser), 4u);
  EXPECT_EQ(try_results, 0b10) << "the refused try_tx reports failure";
  EXPECT_EQ(m.peek(cells, 8), 1u);
  EXPECT_EQ(m.peek(cells + kLineBytes, 8), 1u);
  EXPECT_EQ(o, (Outcome{{0, 0, 4, 0}, 2, 0, 939}));
}

// ---- lock-wait -------------------------------------------------------------

TEST(AbortSources, LockWaitBehindTheFallbackLock) {
  // Core 0's transactions overflow the L1 and take the fallback lock again
  // and again; the other cores' subscriptions race its acquisitions.
  SimConfig cfg = small_cfg(4);
  cfg.l1.size_bytes = 4 * kLineBytes;
  cfg.max_capacity_aborts = 1;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr wide = m.galloc().alloc(6 * kLineBytes, kLineBytes);
  const Addr cells = own_lines(m, 3);
  m.spawn(0, wide_writer(m.ctx(0), wide, 2 * kLineBytes, 3, 40));
  for (CoreId c = 1; c < 4; ++c) {
    m.spawn(c, bumper(m.ctx(c), cells + (c - 1) * kLineBytes, 150, 0));
  }
  m.run(50'000'000);
  const Outcome o = outcome_of(m);
  EXPECT_GT(aborts(o, AbortCause::kLockWait), 0u);
  EXPECT_EQ(o.fallbacks, 40u);
  EXPECT_EQ(o.commits, 40u + 3 * 150u);
  EXPECT_EQ(o, (Outcome{{63, 40, 0, 34}, 490, 40, 26781}));
}

// ---- remote dooms the redirect cannot take at once -------------------------

Task<void> read_wait_write(GuestCtx& c, Addr watched, Addr out, Cycle wait) {
  co_await c.run_tx([&]() -> Task<void> {
    const std::uint64_t v = co_await leaf_load(c, watched);
    co_await c.wait(wait);  // the abort scope is parked for the wait
    co_await c.store_u64(out, v + 1);
  });
}

TEST(AbortSources, DoomWhileParkedInAWait) {
  // Core 1's store dooms core 0 mid-wait. The doom cannot redirect a
  // non-observing wait; it surfaces at the store after the wait, and the
  // retry commits once core 1 is done.
  Machine m(small_cfg(2), DetectorKind::kSubBlock, 4);
  const Addr cells = own_lines(m, 2);
  m.spawn(0, read_wait_write(m.ctx(0), cells, cells + kLineBytes, 2000));
  m.spawn(1, poker(m.ctx(1), cells, 1000, 1, 1));
  m.run(10'000'000);
  const Outcome o = outcome_of(m);
  EXPECT_EQ(aborts(o, AbortCause::kConflict), 1u);
  EXPECT_EQ(m.peek(cells + kLineBytes, 8), 1001u) << "the retry read 1000";
  EXPECT_EQ(o, (Outcome{{1, 0, 0, 0}, 1, 0, 4807}));
}

TEST(AbortSources, DoomWithADelayedProbeCallbackPending) {
  // With probe_delay every miss first parks the core behind a callback.
  // Core 1 keeps storing to a line core 0 reads, so some dooms land while
  // core 0's pending event is that callback: repoint() declines, and the
  // callback's access finds the doom and schedules the retry loop.
  SimConfig cfg = small_cfg(2);
  cfg.probe_delay = 40;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr watched = own_lines(m, 1);
  const Addr wide = m.galloc().alloc(8 * kLineBytes, kLineBytes);
  m.spawn(0, [](GuestCtx& c, Addr watched, Addr wide) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await c.run_tx([&]() -> Task<void> {
        const std::uint64_t v = co_await leaf_load(c, watched);
        co_await store_chain(c, wide, kLineBytes, 4);
        co_await c.store_u64(wide + 4 * kLineBytes, v);
      });
    }
  }(m.ctx(0), watched, wide));
  m.spawn(1, poker(m.ctx(1), watched, 100, 60, 37));
  m.run(50'000'000);
  const Outcome o = outcome_of(m);
  EXPECT_GT(aborts(o, AbortCause::kConflict), 0u);
  EXPECT_EQ(o.commits, 10u);
  EXPECT_EQ(o, (Outcome{{6, 0, 0, 0}, 10, 0, 6550}));
}

// ---- abandoned frames ------------------------------------------------------

/// Counts live instances: a frame local that must die with its frame.
struct FrameSentinel {
  static inline int live = 0;
  static inline int made = 0;
  FrameSentinel() {
    ++live;
    ++made;
  }
  ~FrameSentinel() { --live; }
  FrameSentinel(const FrameSentinel&) = delete;
  FrameSentinel& operator=(const FrameSentinel&) = delete;
};

Task<void> guarded_bump(GuestCtx& c, Addr cell) {
  const FrameSentinel alive;
  co_await bump(c, cell, 30);
}

TEST(AbortSources, AbandonedFramesAreDestroyed) {
  // Remote dooms, policy nacks, injected faults and abort_tx all abandon a
  // suspended frame that holds a sentinel; the retry loop's Task must
  // destroy every one of them.
  SimConfig cfg = small_cfg(4);
  cfg.cm.policy = CmPolicyKind::kPolite;
  cfg.fault.spurious_abort_rate = 0.05;
  Machine m(cfg, DetectorKind::kSubBlock, 4);
  const Addr cell = own_lines(m, 1);
  int refusals = 3;
  for (CoreId core = 0; core < 4; ++core) {
    m.spawn(core, [](GuestCtx& c, Addr cell, int* refusals) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        co_await c.run_tx([&]() -> Task<void> {
          const FrameSentinel alive;
          if (*refusals > 0) {
            --*refusals;
            co_await c.abort_tx();
          }
          co_await guarded_bump(c, cell);
        });
      }
    }(m.ctx(core), cell, &refusals));
  }
  FrameSentinel::live = 0;
  FrameSentinel::made = 0;
  m.run(50'000'000);
  EXPECT_EQ(m.peek(cell, 8), 80u);
  EXPECT_GT(aborts(outcome_of(m), AbortCause::kConflict), 0u);
  EXPECT_EQ(aborts(outcome_of(m), AbortCause::kUser), 3u);
  EXPECT_GT(FrameSentinel::made, 2 * 80) << "aborted attempts made some";
  EXPECT_EQ(FrameSentinel::live, 0);
}

// ---- exceptions that are not aborts ----------------------------------------

TEST(AbortSources, NonAbortExceptionEscapesMachineRun) {
  Machine m(small_cfg(2), DetectorKind::kSubBlock, 4);
  const Addr cells = own_lines(m, 2);
  m.spawn(0, [](GuestCtx& c, Addr cell) -> Task<void> {
    co_await c.run_tx([&]() -> Task<void> {
      co_await bump(c, cell, 5);
      throw std::runtime_error("guest bug");
    });
  }(m.ctx(0), cells));
  m.spawn(1, bumper(m.ctx(1), cells + kLineBytes, 5, 5));
  EXPECT_THROW(m.run(10'000'000), std::runtime_error);
}

TEST(AbortSources, AbortOutsideAnAttemptIsALogicError) {
  // A transaction begun by hand has no retry loop to take its abort.
  Machine m(small_cfg(1), DetectorKind::kSubBlock, 4);
  m.spawn(0, [](GuestCtx& c) -> Task<void> {
    c.runtime().begin(c.core());
    co_await c.abort_tx();
  }(m.ctx(0)));
  EXPECT_THROW(m.run(10'000'000), std::logic_error);
}

}  // namespace
}  // namespace asfsim
