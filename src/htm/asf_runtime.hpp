// ASF-like hardware-transactional-memory runtime.
//
// Versioning is lazy: transactional stores are buffered in a per-core write
// overlay (the architectural analogue of speculative data parked in the L1)
// and applied to the BackingStore only at commit. The BackingStore therefore
// always holds committed data, which is what other cores read — exactly the
// visibility the paper's piggy-back/Dirty machinery expects (speculatively-
// written sub-blocks travel as pre-transaction values and are marked Dirty
// at the requester).
//
// Conflict resolution is requester-wins: the MemorySystem calls doom() on
// the victim while processing the conflicting access; the victim's
// speculative data and metadata are discarded immediately, and the victim's
// pending resume is redirected to its retry loop (set_abort_scope below).
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cm/policy.hpp"
#include "htm/backoff.hpp"
#include "htm/scheduler.hpp"
#include "htm/tx_control.hpp"
#include "mem/backing_store.hpp"
#include "mem/coherence.hpp"
#include "prov/collector.hpp"
#include "sim/addr_map.hpp"
#include "stats/counters.hpp"
#include "trace/sink.hpp"

namespace asfsim {

class Kernel;
class FaultPlan;

class AsfRuntime final : public ITxControl {
 public:
  AsfRuntime(Kernel& kernel, MemorySystem& mem, BackingStore& backing,
             Stats& stats, const SimConfig& cfg);

  // ---- ITxControl --------------------------------------------------------
  [[nodiscard]] bool in_tx(CoreId core) const override {
    const PerCore& p = cores_[core];
    return p.active && !p.doomed;
  }
  void doom(CoreId victim, const ConflictRecord& rec) override;
  /// Conflict resolution through the contention policy (docs/contention.md).
  /// Under the default requester-wins with accounting off this is exactly
  /// the historical doom() call (kernel-identity goldens pin it); active
  /// policies rank the two sides and may rule the requester the loser.
  [[nodiscard]] bool resolve_conflict(CoreId victim,
                                      const ConflictRecord& rec) override;

  // ---- guest-side transaction lifecycle -----------------------------------
  void begin(CoreId core);
  /// Architectural commit: applies the overlay, clears speculative state.
  /// Pre-condition: !doomed(core).
  void commit(CoreId core);
  /// Self-inflicted abort (capacity, injected, policy nack, lock-wait or
  /// guest-requested).
  void self_doom(CoreId core, AbortCause cause);
  /// Called from the retry loop once the abort reached it: final abort
  /// stats.
  /// Returns the retry count (1 = about to run the first retry).
  std::uint32_t finish_abort(CoreId core);

  [[nodiscard]] bool active(CoreId core) const { return cores_[core].active; }
  [[nodiscard]] bool doomed(CoreId core) const { return cores_[core].doomed; }
  [[nodiscard]] AbortCause doom_cause(CoreId core) const {
    return cores_[core].cause;
  }
  [[nodiscard]] std::uint32_t retries(CoreId core) const {
    return cores_[core].retries;
  }
  void reset_retries(CoreId core) {
    cores_[core].retries = 0;
    cores_[core].wasted = 0;
  }
  /// The fallback path starts (spin on the lock; traced as a span end).
  void note_fallback_start(CoreId core) {
    cores_[core].fallback_start = kernel_now();
  }
  /// The fallback lock was acquired: the serialize escalation engaged.
  /// Counts toward the v5 stats section; emits kFallbackAcquired when the
  /// cm subsystem is active (so default-config traces stay byte-identical).
  void note_fallback_acquired(CoreId core);
  /// A transaction completed via the serializing software fallback.
  void note_fallback(CoreId core);
  /// The retry loop is about to stall `wait` cycles (abort penalty +
  /// backoff). Pure bookkeeping: never changes timing.
  void note_backoff(CoreId core, Cycle wait);
  [[nodiscard]] Cycle backoff_wait(CoreId core) {
    // MUTATION kBackoffNeverSleeps: the exponential backoff silently
    // returns a zero wait. Correctness oracles stay green; the chaos
    // harness's backoff-progressivity policy oracle kills it.
    if (backoff_disabled_) return 0;
    return backoff_.wait_for(cores_[core].retries);
  }

  // ---- abort path ---------------------------------------------------------
  /// Register the retry-loop frame of `core`'s current hardware attempt.
  /// Every abort of the attempt resumes this frame instead of the body:
  /// doom() redirects the victim's pending kernel event to it (same cycle,
  /// same sequence), and GuestCtx's leaf awaitables take it (exchange) when
  /// they abort their own transaction. The abandoned attempt's coroutine
  /// frames are destroyed by their owning Task handles
  /// (docs/performance.md). Only frames suspended at an abort-observing
  /// awaitable may stay registered: GuestCtx clears/restores the scope
  /// around non-observing waits, so a doom during a wait surfaces at the
  /// next observing access rather than mid-wait.
  void set_abort_scope(CoreId core, std::coroutine_handle<> h) {
    cores_[core].abort_scope = h;
  }
  void clear_abort_scope(CoreId core) { cores_[core].abort_scope = {}; }
  [[nodiscard]] std::coroutine_handle<> exchange_abort_scope(
      CoreId core, std::coroutine_handle<> h) {
    return std::exchange(cores_[core].abort_scope, h);
  }

  // ---- contention management (docs/contention.md) ------------------------
  /// The active resolution policy (never null; requester-wins by default).
  [[nodiscard]] const ContentionPolicy& policy() const { return *policy_; }
  /// Retry count after which run_tx must escalate to the fallback lock
  /// (cached from the policy; 0 = the policy never forces serialization).
  [[nodiscard]] std::uint32_t serialize_after() const {
    return serialize_after_;
  }
  /// Starvation accounting (always maintained — host-side only, so the
  /// default path stays byte-identical): max run of consecutive
  /// non-lock-wait aborts, cumulative aborted-attempt cycles, and the first
  /// commit/fallback completion cycle (0 = never) for `core`. The chaos
  /// starvation oracle audits these against policy().stated_abort_bound().
  [[nodiscard]] std::uint32_t max_consec_aborts(CoreId core) const {
    return cores_[core].max_consec_aborts;
  }
  [[nodiscard]] Cycle wasted_total(CoreId core) const {
    return cores_[core].wasted_total;
  }
  [[nodiscard]] Cycle first_commit_cycle(CoreId core) const {
    return cores_[core].first_commit;
  }
  [[nodiscard]] std::uint32_t karma(CoreId core) const {
    return cores_[core].karma;
  }
  /// Flush the per-core starvation accounting into the stats blob's v5
  /// section (Machine::run calls this at quiescence when cm.stats is set).
  void flush_cm_stats();

  /// Optional ATS extension (SimConfig::enable_ats); null when disabled.
  [[nodiscard]] AdaptiveScheduler* scheduler() { return scheduler_.get(); }
  void note_ats_dispatch() { ++stats_.ats_serialized; }

  /// Optional trace hub (null while no sink is attached — the disabled
  /// path is a single null-pointer branch per would-be event).
  void set_trace_hub(trace::TraceHub* hub) { hub_ = hub; }
  /// Optional fault plan (null while injection is disabled): commit()
  /// consults it for injected commit-time aborts. A faulted commit dooms
  /// the transaction instead; callers observe it via doomed(core) exactly
  /// like a remote conflict that raced the commit point.
  void set_fault_plan(FaultPlan* plan) { fault_ = plan; }
  /// Optional conflict-provenance collector (null unless
  /// SimConfig::provenance): doom() attributes every conflict record to its
  /// allocation sites. One null check on the conflict path when disabled.
  void set_provenance(prov::ProvCollector* prov) { prov_ = prov; }

  // ---- value path ---------------------------------------------------------
  /// Read `size` bytes at `a` as seen by `core`: its own overlay bytes win,
  /// everything else comes from committed memory.
  [[nodiscard]] std::uint64_t read_value(CoreId core, Addr a,
                                         std::uint32_t size) const;
  /// Write `size` bytes: into the overlay inside a transaction, else
  /// directly to committed memory.
  void write_value(CoreId core, Addr a, std::uint32_t size, std::uint64_t v);

  [[nodiscard]] std::uint64_t overlay_lines(CoreId core) const {
    return cores_[core].overlay.size();
  }

 private:
  struct OverlayLine {
    ByteMask mask = 0;
    std::array<std::uint8_t, kLineBytes> data{};
  };
  // alignas(64): one PerCore per simulated core, updated on every access;
  // line alignment stops neighbors false-sharing host cache lines.
  struct alignas(64) PerCore {
    Cycle tx_start = 0;
    /// Begin cycle of the LOGICAL transaction (first hardware attempt);
    /// survives retries so commit/fallback can report whole-tx latency.
    Cycle logical_start = 0;
    bool active = false;
    bool doomed = false;
    AbortCause cause = AbortCause::kConflict;
    std::uint32_t retries = 0;
    /// In-tx cycles burned by this logical transaction's aborted attempts
    /// so far (reset when it finally commits or falls back).
    Cycle wasted = 0;
    Cycle fallback_start = 0;
    /// Karma (docs/contention.md): aborts suffered since this core's last
    /// completed transaction, credited as priority age by the timestamp
    /// policy. Saturating; reset on commit/fallback completion.
    std::uint32_t karma = 0;
    /// Consecutive non-lock-wait aborts since the last completion (current
    /// run / worst run) — the starvation headline the chaos oracle audits.
    std::uint32_t consec_aborts = 0;
    std::uint32_t max_consec_aborts = 0;
    /// Cumulative in-tx cycles burned by aborted attempts (never reset;
    /// feeds the wasted-cycle Gini in the v5 stats section).
    Cycle wasted_total = 0;
    /// Cycle of the first commit/fallback completion (0 = none yet).
    Cycle first_commit = 0;
    /// Footprint captured at doom time, before clear_spec discards the
    /// metadata; reported by the kAbort event in finish_abort.
    TxFootprint abort_fp;
    /// Retry-loop frame of the current attempt (abort path), or null
    /// when the core is outside an attempt / suspended at a non-observing
    /// wait / already redirected.
    std::coroutine_handle<> abort_scope;
    AddrMap<OverlayLine> overlay;  // keyed by line address
  };

  [[nodiscard]] Cycle kernel_now() const;
  /// Slow path of resolve_conflict: consult the policy, account, trace.
  bool resolve_via_policy(CoreId victim, const ConflictRecord& rec);
  /// Policy priority of `core` (lower = older = stronger): logical-tx start
  /// aged by karma; under MUTATION kUnfairKarmaReset, the raw attempt start
  /// with no karma credit — retries look newborn and starve.
  [[nodiscard]] Cycle cm_priority(CoreId core) const;

  Kernel& kernel_;
  MemorySystem& mem_;
  BackingStore& backing_;
  Stats& stats_;
  BackoffManager backoff_;
  const bool backoff_disabled_;    // MUTATION kBackoffNeverSleeps
  const bool lose_update_commit_;  // MUTATION kLostUpdateCommit
  const bool unfair_karma_reset_;  // MUTATION kUnfairKarmaReset
  std::unique_ptr<ContentionPolicy> policy_;
  /// True when conflicts must route through the policy object (non-default
  /// policy, or opt-in accounting wanting decision events). False keeps the
  /// historical direct-doom fast path, call-for-call.
  const bool cm_active_;
  const Cycle karma_weight_;             // CmConfig::karma
  const std::uint32_t serialize_after_;  // cached policy_->serialize_after()
  std::unique_ptr<AdaptiveScheduler> scheduler_;
  trace::TraceHub* hub_ = nullptr;
  FaultPlan* fault_ = nullptr;
  prov::ProvCollector* prov_ = nullptr;
  std::vector<PerCore> cores_;
  /// commit()'s sort buffer for the overlay's line addresses, reused so a
  /// commit allocates nothing once it has grown.
  std::vector<Addr> commit_lines_;
};

}  // namespace asfsim
