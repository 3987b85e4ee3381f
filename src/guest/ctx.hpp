// GuestCtx: the API guest programs (simulated threads) use to touch
// simulated memory and run transactions.
//
// Every memory access and compute quantum is a leaf awaitable: it resolves
// the access against the memory system at issue time, then suspends the
// guest coroutine stack until the access's load-to-use latency has elapsed
// on the simulated clock. The leaf awaitables ask for that resume through
// Kernel::advance() from a bool await_suspend: when the resume is provably
// the kernel's next event (it comes strictly before every other core's),
// advance() consumes it in place and the awaiter does not suspend at all.
//
// One abort path (docs/performance.md): while an attempt body is running,
// its retry-loop frame is registered as the core's abort scope, and every
// abort resumes that frame instead of the body. A remote doom() repoints
// the victim's pending kernel event at the scope. A self-inflicted abort
// (capacity, injected fault, policy nack, or a doom observed at issue
// time) schedules the scope in place of the guest's own resume, at the
// cycle the access would have completed. A guest-requested abort_tx()
// transfers to the scope at once. The abandoned body chain is then
// destroyed by its owning Task; no abort throws a C++ exception.
//
// Guest-private scratch data (loop counters, local buffers) lives in plain
// C++ locals — the analogue of ASF's non-speculative stack accesses, which
// never conflict. Only *shared* data should live in simulated memory.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "htm/asf_runtime.hpp"
#include "mem/coherence.hpp"
#include "mem/gallocator.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace asfsim {

class GuestCtx {
 public:
  GuestCtx(Kernel& kernel, MemorySystem& mem, AsfRuntime& rt, GAllocator& ga,
           const SimConfig& cfg, CoreId core, Addr fallback_lock)
      : kernel_(kernel),
        mem_(mem),
        rt_(rt),
        galloc_(ga),
        cfg_(cfg),
        core_(core),
        fallback_lock_(fallback_lock),
        rng_(cfg.seed * 0x100000001b3ULL + core + 1) {}

  [[nodiscard]] CoreId core() const { return core_; }
  [[nodiscard]] Cycle now() const { return kernel_.now(); }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] bool in_tx() const { return rt_.active(core_); }
  [[nodiscard]] Kernel& kernel() { return kernel_; }
  [[nodiscard]] AsfRuntime& runtime() { return rt_; }
  [[nodiscard]] MemorySystem& mem() { return mem_; }
  [[nodiscard]] GAllocator& galloc() { return galloc_; }
  /// Core-local pool allocation (STAMP-style per-thread allocator). Pass a
  /// site id (GAllocator::register_site) to tag the block for conflict
  /// provenance; untagged blocks attribute to "(untagged)".
  [[nodiscard]] Addr alloc_local(std::uint64_t size, std::uint64_t align = 8,
                                 prov::SiteId site = prov::kUntaggedSite) {
    return galloc_.alloc_local(core_, size, align, site);
  }

  // ---- leaf awaitables ----------------------------------------------------

  /// One aligned simulated memory access.
  ///
  /// In delayed-probe mode (SimConfig::probe_delay > 0) an access that
  /// needs a broadcast first stalls for the delivery delay WITHOUT touching
  /// the memory system, then executes atomically — so conflict checks see
  /// the machine state at probe-delivery time, not at issue time.
  struct MemOp {
    GuestCtx* ctx;
    Addr addr;
    std::uint64_t value;  // store value in; load value out
    std::uint8_t size;
    bool is_write;
    /// False only for the lock-subscription load, which runs before the
    /// attempt registers its abort scope: it always resumes the guest,
    /// and begin_subscribed checks doomed() itself.
    bool observes_abort = true;

    bool await_ready() const noexcept { return false; }

    /// Perform the access atomically NOW. Returns false when it aborted
    /// its own transaction (or found it doomed) and the retry loop must
    /// resume in the guest's place; `lat` is the load-to-use latency
    /// either way.
    bool perform(Cycle& lat) {
      GuestCtx& c = *ctx;
      lat = 1;
      if (c.rt_.doomed(c.core_)) return !observes_abort;
      const bool tx = c.rt_.in_tx(c.core_);
      const AccessResult r = c.mem_.access(c.core_, addr, size, is_write, tx);
      lat = r.latency;
      if (r.capacity_abort) {
        c.rt_.self_doom(c.core_, AbortCause::kCapacity);
      } else if (r.spurious_abort) {
        // Injected fault: ASF reserves the right to abort spuriously;
        // software must treat it like any transient conflict.
        c.rt_.self_doom(c.core_, AbortCause::kConflict);
      } else if (r.requester_lost) {
        // A contention policy ruled against this (requesting) side: the
        // probe was nacked, no machine state moved, and the requester's
        // own transaction aborts instead of the victim's.
        c.rt_.self_doom(c.core_, AbortCause::kConflict);
      } else {
        if (is_write) {
          c.rt_.write_value(c.core_, addr, size, value);
        } else {
          value = c.rt_.read_value(c.core_, addr, size);
        }
        return true;
      }
      return !observes_abort;
    }

    /// The access at probe-delivery time (delayed-probe callback), then the
    /// guest's — or the retry loop's — resume after its latency.
    void execute(std::coroutine_handle<> h) {
      GuestCtx& c = *ctx;
      Cycle lat = 0;
      if (!perform(lat)) h = c.take_abort_scope();
      c.kernel_.schedule(c.core_, h, c.kernel_.now() + lat);
    }

    bool await_suspend(std::coroutine_handle<> h) {
      GuestCtx& c = *ctx;
      if (c.cfg_.probe_delay > 0 && !c.rt_.doomed(c.core_)) {
        const bool tx = c.rt_.in_tx(c.core_);
        if (c.mem_.would_broadcast(c.core_, addr, size, is_write, tx)) {
          // Delayed-probe mode: the broadcast executes (and conflict checks
          // run) at delivery time, against the machine state THEN.
          c.kernel_.schedule_callback(
              c.core_, [this, h] { execute(h); },
              c.kernel_.now() + c.cfg_.probe_delay);
          return true;
        }
      }
      Cycle lat = 0;
      if (!perform(lat)) {
        c.kernel_.schedule(c.core_, c.take_abort_scope(),
                           c.kernel_.now() + lat);
        return true;
      }
      return !c.kernel_.advance(c.core_, h, c.kernel_.now() + lat);
    }
    std::uint64_t await_resume() const {
      if (observes_abort && ctx->rt_.doomed(ctx->core_)) {
        ctx->unscoped_abort();
      }
      return value;
    }
  };

  /// A compute quantum of `n` cycles (abortable inside a transaction).
  struct WorkOp {
    GuestCtx* ctx;
    Cycle n;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      GuestCtx& c = *ctx;
      if (c.rt_.doomed(c.core_)) {
        c.kernel_.schedule(c.core_, c.take_abort_scope(),
                           c.kernel_.now() + n);
        return true;
      }
      return !c.kernel_.advance(c.core_, h, c.kernel_.now() + n);
    }
    void await_resume() const {
      if (ctx->rt_.doomed(ctx->core_)) ctx->unscoped_abort();
    }
  };

  /// Guest-requested abort of the current transaction (STAMP's
  /// TM_RESTART): dooms it and transfers straight to the retry loop, in
  /// the same host step and without consuming a kernel event. Never
  /// resumes the awaiting body.
  struct AbortTxOp {
    GuestCtx* ctx;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<>) {
      ctx->rt_.self_doom(ctx->core_, AbortCause::kUser);
      return ctx->take_abort_scope();
    }
    void await_resume() const noexcept {}
  };

  /// A plain wait (backoff). A wait never observes dooms, so the abort
  /// scope is parked for its duration: doom() must not redirect to the
  /// retry loop mid-wait — the abort surfaces at the next observing
  /// access, at the cycle that access would have completed.
  struct WaitOp {
    GuestCtx* ctx;
    Cycle n;
    std::coroutine_handle<> saved_scope_{};
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      saved_scope_ = ctx->rt_.exchange_abort_scope(ctx->core_, {});
      return !ctx->kernel_.advance(ctx->core_, h, ctx->kernel_.now() + n);
    }
    void await_resume() const noexcept {
      if (saved_scope_) ctx->rt_.set_abort_scope(ctx->core_, saved_scope_);
    }
  };

  /// Non-transactional atomic swap (used for the fallback lock). The load
  /// and store resolve back-to-back at issue time, so the exchange is
  /// atomic by construction of the simulator.
  struct AtomicSwapOp {
    GuestCtx* ctx;
    Addr addr;
    std::uint64_t desired;
    std::uint64_t old = 0;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      GuestCtx& c = *ctx;
      const AccessResult rl = c.mem_.access(c.core_, addr, 8, false, false);
      old = c.rt_.read_value(c.core_, addr, 8);
      const AccessResult rs = c.mem_.access(c.core_, addr, 8, true, false);
      c.rt_.write_value(c.core_, addr, 8, desired);
      return !c.kernel_.advance(c.core_, h,
                                c.kernel_.now() + rl.latency + rs.latency);
    }
    std::uint64_t await_resume() const noexcept { return old; }
  };

  /// Commit point of a transaction. Resuming yields true when the commit
  /// took effect, false when the transaction was doomed at the commit point
  /// (e.g. an injected commit-time abort) — the retry loops branch on the
  /// value.
  struct CommitOp {
    GuestCtx* ctx;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      GuestCtx& c = *ctx;
      if (!c.rt_.doomed(c.core_)) c.rt_.commit(c.core_);
      return !c.kernel_.advance(c.core_, h,
                                c.kernel_.now() + c.cfg_.commit_latency);
    }
    bool await_resume() const noexcept {
      return !ctx->rt_.doomed(ctx->core_);
    }
  };

  /// One hardware attempt of a transaction body. await_suspend registers
  /// this frame as the core's abort scope and starts the body chain by
  /// symmetric transfer; resuming yields true when the attempt aborted —
  /// an abort resumed this frame while the body was still suspended (the
  /// abandoned frames are destroyed by the Task destructor, never
  /// unwound). Exceptions the body throws propagate: none is an abort.
  /// Holds the attempt Task by pointer: the Task itself lives as a named
  /// local in the retry loop's frame, keeping this awaiter trivially
  /// destructible like every other leaf awaitable (awaiter temporaries
  /// with non-trivial destructors are off-limits with this toolchain — see
  /// the warning in sim/task.hpp).
  struct BodyAttempt {
    GuestCtx* ctx;
    Task<void>* body;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      ctx->rt_.set_abort_scope(ctx->core_, h);
      auto aw = body->operator co_await();
      return aw.await_suspend(h);
    }
    bool await_resume() const {
      ctx->rt_.clear_abort_scope(ctx->core_);
      if (!body->done()) return true;  // redirected: attempt abandoned
      body->rethrow_if_error();
      return false;
    }
  };

  // ---- typed accessors ------------------------------------------------------
  MemOp load(Addr a, std::uint8_t size) { return MemOp{this, a, 0, size, false}; }
  MemOp store(Addr a, std::uint8_t size, std::uint64_t v) {
    return MemOp{this, a, v, size, true};
  }
  MemOp load_u8(Addr a) { return load(a, 1); }
  MemOp load_u16(Addr a) { return load(a, 2); }
  MemOp load_u32(Addr a) { return load(a, 4); }
  MemOp load_u64(Addr a) { return load(a, 8); }
  MemOp store_u8(Addr a, std::uint64_t v) { return store(a, 1, v); }
  MemOp store_u16(Addr a, std::uint64_t v) { return store(a, 2, v); }
  MemOp store_u32(Addr a, std::uint64_t v) { return store(a, 4, v); }
  MemOp store_u64(Addr a, std::uint64_t v) { return store(a, 8, v); }

  WorkOp work(Cycle n) { return WorkOp{this, n}; }
  WorkOp yield() { return WorkOp{this, 1}; }
  WaitOp wait(Cycle n) { return WaitOp{this, n}; }
  /// `co_await c.abort_tx()` inside a run_tx/try_tx body: abort this
  /// attempt (run_tx retries it; try_tx returns false).
  AbortTxOp abort_tx() { return AbortTxOp{this}; }

  // ---- transactions ---------------------------------------------------------

  /// Run `body` (a callable returning Task<void>) as one transaction,
  /// retrying with exponential backoff until it commits. The body must be
  /// re-invocable: aborted attempts leave no trace in simulated memory.
  ///
  /// Best-effort contract: after repeated capacity aborts (a footprint that
  /// can never fit the 2-way L1) or pathological retry counts, the body is
  /// executed under the serializing software fallback lock, lock-elision
  /// style — every transaction subscribes to the lock word, so acquiring it
  /// aborts all in-flight transactions and stalls new ones (this is how
  /// real ASF software stacks guarantee progress).
  template <typename Body>
  Task<void> run_tx(Body body) {
    std::uint32_t capacity_aborts = 0;
    // ATS extension: a core in an abort storm dispatches its transactions
    // through the serializing scheduler slot until its contention EMA cools.
    AdaptiveScheduler* sched = rt_.scheduler();
    bool ats_slot = false;
    if (sched != nullptr && sched->should_serialize(core_)) {
      while (!sched->try_acquire(core_)) co_await WaitOp{this, 120};
      ats_slot = true;
      rt_.note_ats_dispatch();
    }
    // max_tx_retries = 0 disables the fallback entirely (livelock studies:
    // progress then rests on backoff alone; pair with watchdog_cycles) —
    // unless the serialize contention policy is active, whose bounded-retry
    // threshold re-enables it as the guaranteed-progress path.
    const std::uint32_t serialize_after = rt_.serialize_after();
    const bool fallback_enabled =
        cfg_.max_tx_retries != 0 || serialize_after != 0;
    for (;;) {
      if (fallback_enabled &&
          (capacity_aborts >= cfg_.max_capacity_aborts ||
           (cfg_.max_tx_retries != 0 &&
            rt_.retries(core_) >= cfg_.max_tx_retries) ||
           (serialize_after != 0 &&
            rt_.retries(core_) >= serialize_after))) {
        rt_.note_fallback_start(core_);
        co_await acquire_fallback();
        rt_.note_fallback_acquired(core_);
        co_await body();  // runs non-transactionally under the global lock
        if (cfg_.fault.mutation != ProtocolMutation::kFallbackLockLeak) {
          co_await store_u64(fallback_lock_, 0);
        }
        rt_.note_fallback(core_);
        if (ats_slot) sched->release(core_);
        co_return;
      }
      const bool entered = co_await begin_subscribed();
      if (!entered) continue;  // lock was held; waited, try again
      Task<void> attempt = body();
      bool aborted = co_await BodyAttempt{this, &attempt};
      if (!aborted) {
        const bool committed = co_await CommitOp{this};
        aborted = !committed;
      }
      if (!aborted) {
        rt_.reset_retries(core_);
        if (ats_slot) sched->release(core_);
        co_return;
      }
      if (rt_.doom_cause(core_) == AbortCause::kCapacity) ++capacity_aborts;
      rt_.finish_abort(core_);
      const Cycle stall = cfg_.abort_latency + rt_.backoff_wait(core_);
      rt_.note_backoff(core_, stall);  // bookkeeping only, no timing change
      co_await WaitOp{this, stall};
    }
  }

  /// Attempt `body` as one transaction WITHOUT retrying. Returns true when
  /// committed. Use when the caller must recompute inputs between attempts
  /// (e.g. labyrinth replans its path after a validation abort); run_tx would
  /// retry the identical body and spin.
  template <typename Body>
  Task<bool> try_tx(Body body) {
    const bool entered = co_await begin_subscribed();
    if (!entered) co_return false;
    Task<void> attempt = body();
    bool aborted = co_await BodyAttempt{this, &attempt};
    if (!aborted) {
      const bool committed = co_await CommitOp{this};
      aborted = !committed;
    }
    if (!aborted) {
      rt_.reset_retries(core_);
      co_return true;
    }
    rt_.finish_abort(core_);
    const Cycle stall = cfg_.abort_latency + rt_.backoff_wait(core_);
    rt_.note_backoff(core_, stall);
    co_await WaitOp{this, stall};
    co_return false;
  }

  /// Begin a transaction subscribed to the fallback lock. Returns false if
  /// the lock was held (after waiting out the holder, without starting).
  Task<bool> begin_subscribed() {
    // Cheap non-transactional peek first.
    for (;;) {
      const std::uint64_t lk = co_await load_u64(fallback_lock_);
      if (lk == 0) break;
      co_await WaitOp{this, 150};
    }
    rt_.begin(core_);
    // Subscribe: the lock word joins the read set, so a fallback acquirer
    // aborts this transaction via the normal conflict path. No abort scope
    // is registered yet, so the load always resumes here and the doomed()
    // check covers every abort source.
    const std::uint64_t lk = co_await MemOp{this, fallback_lock_, 0, 8, false,
                                            /*observes_abort=*/false};
    bool aborted = rt_.doomed(core_);
    if (!aborted && lk != 0) {
      rt_.self_doom(core_, AbortCause::kLockWait);
      aborted = true;
    }
    if (!aborted) co_return true;
    rt_.finish_abort(core_);
    co_await WaitOp{this, 150};
    co_return false;
  }

  /// Spin until the fallback lock is acquired (non-transactional swap).
  Task<void> acquire_fallback() {
    if (cfg_.fault.mutation == ProtocolMutation::kSerializeSkipsValidation) {
      // MUTATED path: poke the lock word straight into backing store,
      // skipping the coherence probe that dooms subscribed transactions —
      // in-flight transactions race the irrevocable body.
      for (;;) {
        const std::uint64_t old = rt_.read_value(core_, fallback_lock_, 8);
        if (old == 0) {
          rt_.write_value(core_, fallback_lock_, 8, 1);
          co_await WaitOp{this, cfg_.l1.latency};
          co_return;
        }
        co_await WaitOp{this, 200};
      }
    }
    for (;;) {
      const std::uint64_t old =
          co_await AtomicSwapOp{this, fallback_lock_, 1};
      if (old == 0) co_return;
      co_await WaitOp{this, 200};
    }
  }

 private:
  /// The retry-loop frame an abort resumes instead of the body: the
  /// attempt's abort scope, unregistered as it is taken.
  std::coroutine_handle<> take_abort_scope() {
    const std::coroutine_handle<> scope = rt_.exchange_abort_scope(core_, {});
    if (!scope) unscoped_abort();
    return scope;
  }
  /// A transaction aborted where no run_tx/try_tx attempt can take the
  /// abort: a guest-program bug, never a silent wrong result.
  [[noreturn]] void unscoped_abort() const {
    throw std::logic_error("GuestCtx: core " + std::to_string(core_) +
                           " aborted a transaction outside a run_tx/try_tx "
                           "attempt");
  }

  Kernel& kernel_;
  MemorySystem& mem_;
  AsfRuntime& rt_;
  GAllocator& galloc_;
  const SimConfig& cfg_;
  CoreId core_;
  Addr fallback_lock_;
  Rng rng_;
};

}  // namespace asfsim
