// Unit tests: simulation kernel scheduling, determinism, failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/kernel.hpp"

namespace asfsim {
namespace {

/// Minimal leaf awaitable for kernel-only tests.
struct Sleep {
  Kernel* k;
  CoreId core;
  Cycle delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    k->schedule(core, h, k->now() + delay);
  }
  void await_resume() const noexcept {}
};

Task<void> ticker(Kernel* k, CoreId core, int n, Cycle step,
                  std::vector<std::pair<CoreId, Cycle>>* log) {
  for (int i = 0; i < n; ++i) {
    co_await Sleep{k, core, step};
    log->emplace_back(core, k->now());
  }
}

Task<void> nop(Kernel* k, CoreId core) { co_await Sleep{k, core, 1}; }

Task<void> parked(Kernel*, CoreId) {
  struct Never {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {}  // no event scheduled
    void await_resume() const noexcept {}
  };
  co_await Never{};
}

TEST(Kernel, RequiresCores) { EXPECT_THROW(Kernel{0}, std::invalid_argument); }

TEST(Kernel, RunsToCompletionAndAdvancesTime) {
  Kernel k(2);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 3, 10, &log));
  k.spawn(1, ticker(&k, 1, 2, 25, &log));
  const Cycle end = k.run();
  EXPECT_EQ(end, 50u);
  EXPECT_TRUE(k.core_done(0));
  EXPECT_TRUE(k.core_done(1));
  EXPECT_EQ(k.core_finish_cycle(0), 30u);
  EXPECT_EQ(k.core_finish_cycle(1), 50u);
  ASSERT_EQ(log.size(), 5u);
}

TEST(Kernel, InterleavingIsDeterministic) {
  auto run_once = [] {
    Kernel k(4);
    std::vector<std::pair<CoreId, Cycle>> log;
    for (CoreId c = 0; c < 4; ++c) {
      k.spawn(c, ticker(&k, c, 5, 7 + c, &log));
    }
    k.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Kernel, SameCycleEventsServeFifo) {
  Kernel k(2);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 1, 10, &log));
  k.spawn(1, ticker(&k, 1, 1, 10, &log));
  k.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 0u) << "earlier-scheduled event first";
  EXPECT_EQ(log[1].first, 1u);
  EXPECT_EQ(log[0].second, log[1].second);
}

TEST(Kernel, DetectsGuestDeadlock) {
  Kernel k(1);
  k.spawn(0, parked(&k, 0));
  EXPECT_THROW(k.run(), DeadlockError);
}

TEST(Kernel, EnforcesCycleLimit) {
  Kernel k(1);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 1000, 100, &log));
  EXPECT_THROW(k.run(500), CycleLimitError);
}

TEST(Kernel, RejectsDoubleSpawn) {
  Kernel k(1);
  k.spawn(0, nop(&k, 0));
  EXPECT_THROW(k.spawn(0, nop(&k, 0)), std::logic_error);
}

TEST(Kernel, GuestExceptionSurfaces) {
  struct Boom {};
  auto thrower = [](Kernel* k, CoreId core) -> Task<void> {
    co_await Sleep{k, core, 5};
    throw Boom{};
  };
  Kernel k(1);
  k.spawn(0, thrower(&k, 0));
  EXPECT_THROW(k.run(), Boom);
}

// ---- event order against a reference sort ----------------------------------

/// Resume at an absolute cycle, which may lie in the past (then the kernel
/// clamps it to now).
struct SleepUntil {
  Kernel* k;
  CoreId core;
  Cycle at;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { k->schedule(core, h, at); }
  void await_resume() const noexcept {}
};

/// One scheduling step: `delta` cycles ahead, or `delta` cycles back.
struct Step {
  bool back;
  Cycle delta;
};

Cycle target(Cycle now, const Step& s) {
  if (!s.back) return now + s.delta;
  return now >= s.delta ? now - s.delta : 0;
}

using ResumeLog = std::vector<std::pair<CoreId, Cycle>>;

/// Logs every resume (the first one included) and follows its script.
Task<void> scripted(Kernel* k, CoreId core, const std::vector<Step>* script,
                    ResumeLog* log) {
  log->emplace_back(core, k->now());
  for (const Step& s : *script) {
    co_await SleepUntil{k, core, target(k->now(), s)};
    log->emplace_back(core, k->now());
  }
}

/// The order the kernel must produce: every pending event in one list,
/// the minimum (cycle, schedule order) taken by sorting, clamped as the
/// kernel clamps.
ResumeLog reference_order(const std::vector<CoreId>& spawned,
                          const std::vector<Cycle>& starts,
                          const std::vector<std::vector<Step>>& scripts) {
  struct Pending {
    Cycle at;
    std::uint64_t seq;
    CoreId core;
  };
  std::vector<Pending> pending;
  std::uint64_t seq = 0;
  for (const CoreId c : spawned) pending.push_back({starts[c], seq++, c});
  std::vector<std::size_t> next(scripts.size(), 0);
  Cycle now = 0;
  ResumeLog log;
  while (!pending.empty()) {
    std::sort(pending.begin(), pending.end(),
              [](const Pending& a, const Pending& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    const Pending e = pending.front();
    pending.erase(pending.begin());
    now = std::max(now, e.at);
    log.emplace_back(e.core, now);
    if (next[e.core] < scripts[e.core].size()) {
      const Cycle at = target(now, scripts[e.core][next[e.core]++]);
      pending.push_back({std::max(at, now), seq++, e.core});
    }
  }
  return log;
}

TEST(Kernel, ResumesFollowCycleThenScheduleOrder) {
  // Randomized scripts on 1–64 cores: many equal cycles (small deltas),
  // resumes scheduled in the past, cores never spawned and cores that
  // finish early. Every resume must come in exact (cycle, seq) order.
  for (const std::uint32_t ncores : {1u, 2u, 3u, 7u, 8u, 16u, 33u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::mt19937_64 rng(seed * 1000 + ncores);
      std::vector<std::vector<Step>> scripts(ncores);
      std::vector<Cycle> starts(ncores, 0);
      std::vector<CoreId> spawned;
      for (CoreId c = 0; c < ncores; ++c) {
        if (ncores > 1 && rng() % 5 == 0) continue;  // idle core
        spawned.push_back(c);
        starts[c] = rng() % 3 == 0 ? rng() % 8 : 0;
        const std::size_t len = rng() % 40;
        for (std::size_t i = 0; i < len; ++i) {
          const std::uint64_t r = rng() % 16;
          if (r < 2) {
            scripts[c].push_back({true, rng() % 20});  // clamped to now
          } else if (r < 12) {
            scripts[c].push_back({false, rng() % 3});  // ties likely
          } else {
            scripts[c].push_back({false, rng() % 300});
          }
        }
      }
      // Spawn in a shuffled order: schedule order, not core id, breaks
      // ties.
      std::shuffle(spawned.begin(), spawned.end(), rng);
      Kernel k(ncores);
      ResumeLog log;
      for (const CoreId c : spawned) {
        k.spawn(c, scripted(&k, c, &scripts[c], &log), starts[c]);
      }
      k.run();
      const ResumeLog want = reference_order(spawned, starts, scripts);
      ASSERT_EQ(log, want) << ncores << " cores, seed " << seed;
      EXPECT_EQ(k.events_processed(), want.size());
    }
  }
}

TEST(Kernel, CountsProcessedEvents) {
  Kernel k(1);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 4, 2, &log));
  k.run();
  // 1 initial resume + 4 sleep completions.
  EXPECT_EQ(k.events_processed(), 5u);
}

}  // namespace
}  // namespace asfsim
