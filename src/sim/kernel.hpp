// The cycle-driven simulation kernel.
//
// The kernel owns one slot per simulated core. A guest thread is a Task<void>
// coroutine bound to a core. Leaf awaitables (memory accesses, compute
// quanta, backoff waits) call Kernel::advance() to ask to be resumed at a
// later cycle; the kernel's run loop pops the earliest pending resume and
// transfers control back into the guest coroutine stack.
//
// Run-ahead: when the running core's next resume comes strictly before
// every other core's pending event, the run loop would pick that resume
// next anyway. advance() then consumes the event in place (clock, sequence
// number and event count move exactly as the loop would move them) and the
// awaiter does not suspend at all, skipping the suspend -> pick -> resume
// round trip. Otherwise advance() records the resume like schedule().
// schedule() remains for resumes that are never run-ahead: abort-scope
// redirects, delayed-probe callbacks, barrier releases and spawn.
//
// Determinism: events are ordered by (cycle, schedule-sequence-number), so a
// given workload + seed always produces the identical interleaving, cycle
// count and statistics, regardless of host conditions.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/task.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// Thrown when run() finds live guest threads but no pending events.
struct DeadlockError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown when run() exceeds its cycle limit (livelock guard).
struct CycleLimitError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown by the livelock watchdog: no commit progress for watchdog_cycles.
/// what() carries the full structured diagnostic dump (docs/robustness.md).
struct LivelockError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown when run() exceeds its host wall-clock budget (runner job guard).
struct WallClockError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FaultPlan;

class Kernel {
 public:
  explicit Kernel(std::uint32_t ncores);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] std::uint32_t ncores() const {
    return static_cast<std::uint32_t>(cores_.size());
  }

  /// Bind a guest thread to a core and arm it to start at cycle `start`.
  /// Each core runs at most one guest thread per simulation.
  void spawn(CoreId core, Task<void> root, Cycle start = 0);

  /// Ask the kernel to resume `h` on behalf of `core` at cycle `at`
  /// (clamped to now()). Exactly one resume may be pending per core.
  void schedule(CoreId core, std::coroutine_handle<> h, Cycle at);

  /// schedule() for the awaiter of the running core, with run-ahead: when
  /// `core` is the running core, its resume at `at` comes strictly before
  /// every other pending event, no run-loop guard is due at `at`, and the
  /// run-ahead budget is not spent, the event is consumed in place and
  /// advance() returns true — the caller continues without suspending,
  /// exactly as if the run loop had picked and resumed it. Otherwise the
  /// resume is recorded as schedule() records it and advance() returns
  /// false. Leaf awaiters return !advance(...) from a bool await_suspend.
  [[nodiscard]] bool advance(CoreId core, std::coroutine_handle<> h,
                             Cycle at) {
    if (fault_ != nullptr) at = jittered(core, at);
    if (at < now_) at = now_;
    // Strict: at a tie the other core's event holds the smaller seq.
    if (core == running_ && at < horizon_ && run_ahead_left_ != 0 &&
        !guard_due(at)) {
      assert(ready_[core] == kIdle && "one pending resume per core");
      --run_ahead_left_;
      now_ = at;
      ++seq_counter_;
      ++events_;
      return true;
    }
    post(core, h, at);
    return false;
  }

  /// Run `fn` on behalf of `core` at cycle `at` instead of resuming a
  /// coroutine (the delayed-probe mode uses this to execute an access at
  /// probe-delivery time and only then schedule the guest's resume).
  void schedule_callback(CoreId core, std::function<void()> fn, Cycle at);

  /// Swap the coroutine that `core`'s already-pending event will resume,
  /// keeping its (cycle, sequence) slot. This is the remote half of the
  /// abort path (docs/performance.md): when a conflict dooms a suspended
  /// transaction, the runtime redirects the victim's resume straight to its
  /// retry-loop frame, and the abandoned attempt's coroutine chain is then
  /// destroyed. Returns false (and changes nothing) when the core has no
  /// plain pending resume — e.g. a delayed-probe callback is queued, whose
  /// access then observes the doom and schedules the retry loop itself.
  [[nodiscard]] bool repoint(CoreId core, std::coroutine_handle<> h) {
    auto& slot = cores_[core];
    if (!slot.pending) return false;
    slot.pending = h;
    return true;
  }

  /// Run until every spawned guest thread completes. Returns the final cycle.
  /// Throws DeadlockError / CycleLimitError / any exception escaping a root.
  Cycle run(Cycle max_cycles = ~Cycle{0});

  [[nodiscard]] bool core_done(CoreId c) const { return cores_[c].finished; }
  [[nodiscard]] Cycle core_finish_cycle(CoreId c) const {
    return cores_[c].finish_cycle;
  }
  [[nodiscard]] std::uint64_t events_processed() const { return events_; }

  /// Record forward progress (a commit or a fallback-path completion). The
  /// watchdog measures "cycles since the last note_progress()".
  void note_progress() {
    progress_mark_ = now_;
    refresh_guard_cycle();
  }

  /// Arm the livelock watchdog: if no note_progress() happens for `cycles`
  /// simulated cycles, run() calls `report` and throws LivelockError with
  /// the returned diagnostic dump. 0 disarms.
  void set_watchdog(Cycle cycles, std::function<std::string()> report) {
    watchdog_cycles_ = cycles;
    watchdog_report_ = std::move(report);
  }

  /// Run `fn` at least every `interval` simulated cycles (chaos harness
  /// invariant audits). `fn` throws to fail the run. 0 disarms.
  void set_audit(Cycle interval, std::function<void()> fn) {
    audit_interval_ = interval;
    audit_fn_ = std::move(fn);
  }

  /// Abort run() with WallClockError once it has consumed `seconds` of host
  /// wall-clock time (checked every few thousand events). 0 disarms.
  void set_wall_limit(double seconds) { wall_limit_s_ = seconds; }

  /// Attach a fault plan (sched_jitter stretches event delays). Null detaches.
  void set_fault_plan(FaultPlan* plan) { fault_ = plan; }

 private:
  // alignas(64): per-core event payload, written by one core's schedule()
  // and consumed by the run loop; line alignment keeps neighboring slots
  // off each other's host cache lines.
  struct alignas(64) CoreSlot {
    Task<void> root;
    std::coroutine_handle<> pending;  // continuation to resume, or null
    std::function<void()> callback;   // ... or a deferred action
    bool spawned = false;
    bool finished = false;
    Cycle finish_cycle = 0;
  };

  /// ready_[c] == kIdle means "no pending event for core c".
  static constexpr Cycle kIdle = ~Cycle{0};
  /// run() samples the wall clock once per this many events (a power of 2).
  static constexpr std::uint64_t kWallSampleEvents = 0x1000;

  /// Record `core`'s resume at the final (jittered, clamped) cycle `at`.
  void post(CoreId core, std::coroutine_handle<> h, Cycle at) {
    assert(core < cores_.size());
    assert(ready_[core] == kIdle && "one pending resume per core");
    cores_[core].pending = h;
    ready_[core] = at;
    seq_[core] = seq_counter_++;
    if (at < horizon_) horizon_ = at;
  }
  /// `at` stretched by the fault plan's sched jitter for `core`.
  [[nodiscard]] Cycle jittered(CoreId core, Cycle at) const;

  /// The one guard predicate of run() and advance(): would an event at
  /// cycle `at`, taken now, trip the cycle limit or the watchdog, be due
  /// for an audit, or be a wall-clock sample point? One cycle compare
  /// covers the first three (guard_cycle_ is the last cycle at which none
  /// of them is due), one event-count compare the fourth.
  [[nodiscard]] bool guard_due(Cycle at) const {
    return at > guard_cycle_ || events_ >= wall_sample_event_;
  }
  /// Run whichever guards guard_due() found due, in this order: cycle
  /// limit, watchdog, audit, wall clock. Throws or returns.
  void run_guards(double wall_start_s);
  /// Recompute guard_cycle_ after any of its inputs moved.
  void refresh_guard_cycle();

  std::vector<CoreSlot> cores_;
  // The event-selection scan runs once per simulated event over every core;
  // keeping (ready cycle, FIFO seq) in dense parallel arrays makes it a
  // two-stream walk over a handful of cache lines instead of a stride
  // through the fat CoreSlot structs (docs/performance.md). Idle cores
  // carry (kIdle, ~0), which can never win the (cycle, seq) comparison.
  std::vector<Cycle> ready_;
  std::vector<std::uint64_t> seq_;
  Cycle now_ = 0;
  std::uint64_t seq_counter_ = 0;
  std::uint64_t events_ = 0;
  // Run-ahead state: the core whose event run() is executing (kInvalidCore
  // outside run()), and a lower bound on every other core's pending cycle —
  // exact at the pick, lowered by every post() during the event. repoint()
  // never moves a cycle, so it leaves the bound valid.
  CoreId running_ = kInvalidCore;
  Cycle horizon_ = kIdle;
  // Run-ahead events left before the next return to the run loop. Every
  // run-ahead event stays inside one host resume, and a compiler that does
  // not lower symmetric transfer to a tail call (GCC at -O0) grows the host
  // stack with each child-task completion in between; the budget bounds
  // that growth. Falling back to the run loop never changes an outcome.
  static constexpr std::uint32_t kRunAheadBudget = 256;
  std::uint32_t run_ahead_left_ = 0;

  // Robustness hooks (docs/robustness.md). All default-off; guard_due()
  // folds them into one cycle compare and one event-count compare.
  Cycle max_cycles_ = ~Cycle{0};
  Cycle guard_cycle_ = ~Cycle{0};
  std::uint64_t wall_sample_event_ = ~std::uint64_t{0};
  Cycle progress_mark_ = 0;
  Cycle watchdog_cycles_ = 0;
  std::function<std::string()> watchdog_report_;
  Cycle audit_interval_ = 0;
  Cycle audit_mark_ = 0;
  std::function<void()> audit_fn_;
  double wall_limit_s_ = 0.0;
  FaultPlan* fault_ = nullptr;
};

}  // namespace asfsim
