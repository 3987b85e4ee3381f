// The cycle-driven simulation kernel.
//
// The kernel owns one slot per simulated core. A guest thread is a Task<void>
// coroutine bound to a core. Leaf awaitables (memory accesses, compute
// quanta, backoff waits) call Kernel::schedule() to ask to be resumed at a
// later cycle; the kernel's run loop pops the earliest pending resume and
// transfers control back into the guest coroutine stack.
//
// Determinism: events are ordered by (cycle, schedule-sequence-number), so a
// given workload + seed always produces the identical interleaving, cycle
// count and statistics, regardless of host conditions.
#pragma once

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
  void note_progress() { progress_mark_ = now_; }

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

  // Robustness hooks (docs/robustness.md). All default-off: a clean run
  // executes one integer compare per event beyond the seed behavior.
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
