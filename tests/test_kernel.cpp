// Unit tests: simulation kernel scheduling, determinism, failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
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
/// clamps it to now) — through advance() (run-ahead allowed) or schedule().
struct SleepUntil {
  Kernel* k;
  CoreId core;
  Cycle at;
  bool run_ahead = false;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    if (run_ahead) return !k->advance(core, h, at);
    k->schedule(core, h, at);
    return true;
  }
  void await_resume() const noexcept {}
};

/// One scheduling step: `delta` cycles ahead, or `delta` cycles back,
/// awaited through advance() when `run_ahead`.
struct Step {
  bool back;
  Cycle delta;
  bool run_ahead = false;
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
    co_await SleepUntil{k, core, target(k->now(), s), s.run_ahead};
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

/// Randomized scripts on `ncores` cores: many equal cycles (small deltas),
/// resumes scheduled in the past, cores never spawned and cores that
/// finish early. With `run_ahead`, each step picks advance() or schedule()
/// at random. Every resume must come in exact (cycle, seq) order, and
/// every resume counts as one processed event.
void expect_reference_order(std::uint32_t ncores, std::uint64_t seed,
                            bool run_ahead) {
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
  if (run_ahead) {
    std::mt19937_64 pick(seed * 7919 + ncores);
    for (auto& script : scripts) {
      for (Step& s : script) s.run_ahead = pick() % 2 == 0;
    }
  }
  // Spawn in a shuffled order: schedule order, not core id, breaks ties.
  std::shuffle(spawned.begin(), spawned.end(), rng);
  Kernel k(ncores);
  ResumeLog log;
  for (const CoreId c : spawned) {
    k.spawn(c, scripted(&k, c, &scripts[c], &log), starts[c]);
  }
  k.run();
  const ResumeLog want = reference_order(spawned, starts, scripts);
  ASSERT_EQ(log, want) << ncores << " cores, seed " << seed
                       << (run_ahead ? ", run-ahead" : "");
  EXPECT_EQ(k.events_processed(), want.size());
}

TEST(Kernel, ResumesFollowCycleThenScheduleOrder) {
  for (const std::uint32_t ncores : {1u, 2u, 3u, 7u, 8u, 16u, 33u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_reference_order(ncores, seed, /*run_ahead=*/false);
      // SleepUntil variant: advance() or schedule(), chosen per step.
      expect_reference_order(ncores, seed, /*run_ahead=*/true);
    }
  }
}

// ---- run-ahead vs the run-loop guards ---------------------------------------

/// `n` sleeps of `step` cycles on one core, each through advance() when
/// `run_ahead`, else through schedule(). With one core every advance() is
/// eligible to run ahead. `hook(i)` runs after the i-th resume.
template <typename Hook>
Task<void> chain(Kernel* k, CoreId core, std::uint64_t n, Cycle step,
                 bool run_ahead, Hook hook) {
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await SleepUntil{k, core, k->now() + step, run_ahead};
    hook(i);
  }
}

struct GuardOutcome {
  std::string error;  // what() of the escaping exception, empty = none
  Cycle now = 0;
  std::uint64_t events = 0;
  std::vector<Cycle> audits;
};

/// Run a one-core chain under the guards `arm` sets, and record where (and
/// whether) a guard ended it.
template <typename Arm, typename Hook>
GuardOutcome run_guarded(bool run_ahead, std::uint64_t n, Cycle max_cycles,
                         Arm arm, Hook hook) {
  Kernel k(1);
  GuardOutcome out;
  arm(k, out);
  k.spawn(0, chain(&k, 0, n, 3, run_ahead, hook));
  try {
    k.run(max_cycles);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.now = k.now();
  out.events = k.events_processed();
  return out;
}

TEST(Kernel, RunAheadHonoursGuards) {
  const auto no_hook = [](std::uint64_t) {};
  const auto no_arm = [](Kernel&, GuardOutcome&) {};
  for (const bool run_ahead : {false, true}) {
    SCOPED_TRACE(run_ahead ? "advance()" : "schedule()");
    // Cycle limit: the first event past cycle 500 throws.
    const GuardOutcome lim = run_guarded(run_ahead, 1000, 500, no_arm, no_hook);
    EXPECT_NE(lim.error.find("cycle limit"), std::string::npos) << lim.error;
    EXPECT_EQ(lim.now, 501u);
    EXPECT_EQ(lim.events, 167u);

    // Watchdog: no progress is ever noted, so it fires once 100 cycles pass.
    Kernel k(1);
    k.set_watchdog(100, [] { return std::string("dump"); });
    k.spawn(0, chain(&k, 0, 1000, 3, run_ahead, no_hook));
    EXPECT_THROW(k.run(), LivelockError);
    EXPECT_EQ(k.now(), 102u);
    EXPECT_EQ(k.events_processed(), 34u);
  }

  // Watchdog with progress noted every 10 resumes never fires.
  for (const bool run_ahead : {false, true}) {
    Kernel k(1);
    k.set_watchdog(40, [] { return std::string(); });
    k.spawn(0, chain(&k, 0, 1000, 3, run_ahead, [&k](std::uint64_t i) {
              if (i % 10 == 0) k.note_progress();
            }));
    EXPECT_EQ(k.run(), 3000u);
  }

  // Audit: the same cycles, the same number of times, either way.
  const auto audited = [](Kernel& k, GuardOutcome& out) {
    k.set_audit(50, [&k, &out] { out.audits.push_back(k.now()); });
  };
  const GuardOutcome a0 = run_guarded(false, 1000, ~Cycle{0}, audited, no_hook);
  const GuardOutcome a1 = run_guarded(true, 1000, ~Cycle{0}, audited, no_hook);
  EXPECT_TRUE(a0.error.empty()) << a0.error;
  EXPECT_EQ(a0.audits.size(), 3000u / 51u);
  EXPECT_EQ(a1.audits, a0.audits);
  EXPECT_EQ(a1.events, a0.events);

  // Wall clock: sampled when the event count is a multiple of 4096. The
  // guest burns the budget right after resume 5000, so the sample
  // before event 8193 throws — with or without run-ahead.
  for (const bool run_ahead : {false, true}) {
    SCOPED_TRACE(run_ahead ? "advance()" : "schedule()");
    const GuardOutcome w = run_guarded(
        run_ahead, 100000, ~Cycle{0},
        [](Kernel& k, GuardOutcome&) { k.set_wall_limit(0.2); },
        [](std::uint64_t i) {
          if (i == 5000) {
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
          }
        });
    EXPECT_NE(w.error.find("wall-clock limit"), std::string::npos) << w.error;
    EXPECT_EQ(w.events, 8192u);
  }
}

/// One child task per sleep: every completion symmetric-transfers back to
/// the loop, all inside one host resume when every sleep runs ahead.
Task<void> one_sleep(Kernel* k, CoreId core) {
  co_await SleepUntil{k, core, k->now() + 1, true};
}

Task<void> long_chain(Kernel* k, CoreId core, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await one_sleep(k, core);
}

TEST(Kernel, RunAheadChainKeepsTheHostStackFlat) {
  // A million events on one core: all but every kRunAheadBudget-th run
  // ahead without returning to the run loop. A host stack that grew per
  // child-task completion without bound (symmetric transfer at -O0) would
  // overflow.
  constexpr std::uint64_t kEvents = 1'000'000;
  Kernel k(1);
  k.spawn(0, long_chain(&k, 0, kEvents));
  EXPECT_EQ(k.run(), kEvents);
  EXPECT_EQ(k.events_processed(), kEvents + 1);
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
