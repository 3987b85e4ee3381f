#include "sim/kernel.hpp"

#include <algorithm>
#include <chrono>

#include "fault/plan.hpp"

namespace asfsim {

namespace {

/// Host seconds on a monotonic clock. Wall-clock watchdog escape hatch
/// only: the reading never feeds any simulated state, it just bounds how
/// long a runaway run may burn CPU.
double wall_seconds() {
  // asfsim-lint: allow(nondeterministic-source)
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// a + b, saturating at the all-ones "never" cycle.
Cycle sat_add(Cycle a, Cycle b) { return a + b < a ? ~Cycle{0} : a + b; }

}  // namespace

Kernel::Kernel(std::uint32_t ncores)
    : cores_(ncores), ready_(ncores, kIdle), seq_(ncores, ~std::uint64_t{0}) {
  if (ncores == 0) throw std::invalid_argument("Kernel: ncores must be > 0");
}

void Kernel::spawn(CoreId core, Task<void> root, Cycle start) {
  auto& slot = cores_.at(core);
  if (slot.spawned) throw std::logic_error("Kernel::spawn: core already used");
  slot.root = std::move(root);
  slot.spawned = true;
  schedule(core, slot.root.raw_handle(), start);
}

void Kernel::schedule(CoreId core, std::coroutine_handle<> h, Cycle at) {
  if (fault_ != nullptr) at = jittered(core, at);
  post(core, h, at < now_ ? now_ : at);
}

Cycle Kernel::jittered(CoreId core, Cycle at) const {
  return at + fault_->sched_jitter(core);
}

void Kernel::schedule_callback(CoreId core, std::function<void()> fn,
                               Cycle at) {
  auto& slot = cores_.at(core);
  if (fault_ != nullptr) at = jittered(core, at);
  post(core, {}, at < now_ ? now_ : at);
  slot.callback = std::move(fn);
}

void Kernel::refresh_guard_cycle() {
  Cycle last = max_cycles_;
  if (watchdog_cycles_ != 0) {
    last = std::min(last, sat_add(progress_mark_, watchdog_cycles_));
  }
  if (audit_interval_ != 0) {
    last = std::min(last, sat_add(audit_mark_, audit_interval_ - 1));
  }
  guard_cycle_ = last;
}

void Kernel::run_guards(double wall_start_s) {
  if (now_ > max_cycles_) {
    throw CycleLimitError("Kernel::run: cycle limit exceeded (livelock?)");
  }
  if (watchdog_cycles_ != 0 && now_ - progress_mark_ > watchdog_cycles_) {
    std::string dump = watchdog_report_ ? watchdog_report_() : std::string{};
    throw LivelockError(
        "Kernel::run: livelock watchdog fired — no commit progress for " +
        std::to_string(now_ - progress_mark_) + " cycles (limit " +
        std::to_string(watchdog_cycles_) + ")" +
        (dump.empty() ? "" : "\n" + dump));
  }
  if (audit_interval_ != 0 && now_ - audit_mark_ >= audit_interval_) {
    audit_mark_ = now_;
    refresh_guard_cycle();
    audit_fn_();  // throws to fail the run (chaos invariant audit)
  }
  if (events_ >= wall_sample_event_) {
    wall_sample_event_ += kWallSampleEvents;
    const double used = wall_seconds() - wall_start_s;
    if (used > wall_limit_s_) {
      throw WallClockError("Kernel::run: wall-clock limit exceeded (" +
                           std::to_string(used) + "s > " +
                           std::to_string(wall_limit_s_) + "s at cycle " +
                           std::to_string(now_) + ")");
    }
  }
}

Cycle Kernel::run(Cycle max_cycles) {
  const double wall_start_s = wall_seconds();
  // The running-core marker must not outlive run(), on any exit path: an
  // advance() outside run() always records its resume.
  struct ClearRunning {
    CoreId& running;
    ~ClearRunning() { running = kInvalidCore; }
  } clear_running{running_};
  max_cycles_ = max_cycles;
  progress_mark_ = now_;
  audit_mark_ = now_;
  refresh_guard_cycle();
  // Sample the wall clock at every event count that is a multiple of
  // kWallSampleEvents.
  wall_sample_event_ =
      wall_limit_s_ > 0.0
          ? (events_ + kWallSampleEvents - 1) & ~(kWallSampleEvents - 1)
          : ~std::uint64_t{0};
  for (;;) {
    // Pick the earliest pending event; FIFO among equal cycles. Idle cores
    // hold (kIdle, ~0) and can never win the comparison, so the scan is a
    // branch-light sweep over the two dense arrays. The same sweep finds
    // the earliest cycle of every other core: the run-ahead horizon.
    CoreId best = kInvalidCore;
    Cycle best_at = kIdle;
    std::uint64_t best_seq = ~std::uint64_t{0};
    Cycle others_at = kIdle;
    for (CoreId c = 0; c < ready_.size(); ++c) {
      const Cycle at = ready_[c];
      if (at < best_at || (at == best_at && seq_[c] < best_seq)) {
        others_at = best_at;
        best = c;
        best_at = at;
        best_seq = seq_[c];
      } else if (at < others_at) {
        others_at = at;
      }
    }
    if (best == kInvalidCore) {
      // No events: either everything finished, or we are deadlocked.
      for (CoreId c = 0; c < cores_.size(); ++c) {
        if (cores_[c].spawned && !cores_[c].finished) {
          throw DeadlockError(
              "Kernel::run: live guest threads but no pending events "
              "(guest-side deadlock, e.g. a barrier nobody reaches)");
        }
      }
      return now_;
    }

    auto& slot = cores_[best];
    if (best_at > now_) now_ = best_at;
    if (guard_due(now_)) run_guards(wall_start_s);
    ready_[best] = kIdle;
    seq_[best] = ~std::uint64_t{0};
    ++events_;
    running_ = best;
    horizon_ = others_at;
    run_ahead_left_ = kRunAheadBudget;
    if (slot.pending) {
      const auto h = slot.pending;
      slot.pending = {};
      h.resume();  // guest runs until its next leaf suspension or completion
    } else {
      const auto cb = std::move(slot.callback);
      slot.callback = nullptr;
      cb();  // deferred action; it reschedules the guest itself
    }

    if (slot.spawned && !slot.finished && slot.root.done()) {
      slot.finished = true;
      slot.finish_cycle = now_;
      slot.root.rethrow_if_error();  // guest bugs surface immediately
    }
  }
}

}  // namespace asfsim
