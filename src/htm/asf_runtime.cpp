#include "htm/asf_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "fault/plan.hpp"
#include "sim/kernel.hpp"

namespace asfsim {

AsfRuntime::AsfRuntime(Kernel& kernel, MemorySystem& mem,
                       BackingStore& backing, Stats& stats,
                       const SimConfig& cfg)
    : kernel_(kernel),
      mem_(mem),
      backing_(backing),
      stats_(stats),
      backoff_(cfg, cfg.seed ^ 0x9e3779b97f4a7c15ULL),
      backoff_disabled_(cfg.fault.mutation ==
                        ProtocolMutation::kBackoffNeverSleeps),
      lose_update_commit_(cfg.fault.mutation ==
                          ProtocolMutation::kLostUpdateCommit),
      unfair_karma_reset_(cfg.fault.mutation ==
                          ProtocolMutation::kUnfairKarmaReset),
      policy_(make_policy(cfg.cm)),
      cm_active_(cfg.cm.active()),
      karma_weight_(cfg.cm.karma),
      serialize_after_(policy_->serialize_after()),
      cores_(cfg.ncores) {
  if (cfg.enable_ats) {
    scheduler_ = std::make_unique<AdaptiveScheduler>(cfg.ncores, cfg.ats_alpha,
                                                     cfg.ats_threshold);
  }
}

Cycle AsfRuntime::kernel_now() const { return kernel_.now(); }

void AsfRuntime::begin(CoreId core) {
  PerCore& p = cores_[core];
  assert(!p.active && "nested transactions are not supported");
  p.active = true;
  p.doomed = false;
  p.cause = AbortCause::kConflict;
  p.tx_start = kernel_.now();
  if (p.retries == 0) p.logical_start = p.tx_start;
  p.abort_fp = TxFootprint{};
  stats_.on_tx_attempt(kernel_.now());
  if (hub_) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kBegin;
    ev.core = core;
    ev.cycle = kernel_.now();
    hub_->emit(ev);
  }
}

void AsfRuntime::doom(CoreId victim, const ConflictRecord& rec) {
  PerCore& p = cores_[victim];
  assert(p.active && !p.doomed);
  // Footprint must be read before the architectural abort below discards
  // the speculative metadata; finish_abort reports it.
  p.abort_fp = mem_.tx_footprint(victim);
  prov::ProvCollector::Attribution at;
  if (prov_) at = prov_->on_conflict(rec, kernel_.now() - p.tx_start);
  if (hub_) {
    hub_->emit(trace::conflict_event(trace::TraceEventKind::kConflict, rec,
                                     prov_ ? &at : nullptr));
  }
  p.doomed = true;
  p.cause = AbortCause::kConflict;
  // Architectural abort happens at message-receipt time: discard all
  // speculative data and reset the bits (paper §IV-A).
  p.overlay.clear();
  mem_.clear_spec(victim, /*discard_written_lines=*/true);
  // Abort path: the victim is suspended (requester-wins conflicts are
  // resolved while processing the requester's access), and its registered
  // scope guarantees the pending resume observes the abort. Redirect the
  // event to the retry-loop frame — same simulated instant, no host-side
  // unwinding (docs/performance.md). When the pending event is a
  // delayed-probe callback, repoint() declines and the scope stays
  // registered: the callback's access finds the transaction doomed and
  // schedules the scope itself.
  if (p.abort_scope && kernel_.repoint(victim, p.abort_scope)) {
    p.abort_scope = {};
  }
}

bool AsfRuntime::resolve_conflict(CoreId victim, const ConflictRecord& rec) {
  if (!cm_active_) {
    // Default requester-wins with accounting off: exactly the historical
    // direct doom() call (kernel-identity FNV goldens pin this path).
    doom(victim, rec);
    return false;
  }
  return resolve_via_policy(victim, rec);
}

Cycle AsfRuntime::cm_priority(CoreId core) const {
  const PerCore& p = cores_[core];
  // MUTATION kUnfairKarmaReset: the policy sees the ATTEMPT start cycle and
  // no karma credit, so every retry looks newborn — a repeatedly-victimized
  // transaction never gains priority and can starve without bound. Killed
  // by the chaos starvation oracle (ChaosVerdict::kStarvation).
  if (unfair_karma_reset_) return p.tx_start;
  const Cycle age = Cycle{p.karma} * karma_weight_;
  const Cycle start = p.logical_start;
  return start - (age < start ? age : start);  // saturating: floors at 0
}

bool AsfRuntime::resolve_via_policy(CoreId victim, const ConflictRecord& rec) {
  CmSide req;
  req.core = rec.requester;
  req.in_tx = in_tx(rec.requester);
  req.priority = req.in_tx ? cm_priority(rec.requester) : 0;
  CmSide vic;
  vic.core = victim;
  vic.in_tx = true;
  vic.priority = cm_priority(victim);
  const CmLoser loser = policy_->resolve(req, vic);
  ++stats_.cm_policy_decisions;
  if (hub_) {
    trace::TraceEvent ev =
        trace::conflict_event(trace::TraceEventKind::kPolicy, rec);
    ev.loser = loser == CmLoser::kRequester ? rec.requester : victim;
    hub_->emit(ev);
  }
  if (loser == CmLoser::kRequester) {
    ++stats_.cm_requester_losses;
    return true;  // the memory system nacks; the requester self-aborts
  }
  doom(victim, rec);
  return false;
}

void AsfRuntime::self_doom(CoreId core, AbortCause cause) {
  PerCore& p = cores_[core];
  assert(p.active);
  if (p.doomed) return;  // a remote conflict already got here first
  p.abort_fp = mem_.tx_footprint(core);
  p.doomed = true;
  p.cause = cause;
  p.overlay.clear();
  mem_.clear_spec(core, /*discard_written_lines=*/true);
}

void AsfRuntime::commit(CoreId core) {
  // Injected commit-time abort (late interference, e.g. an interrupt at the
  // commit point): the transaction dooms itself instead of committing, and
  // the guest's CommitOp observes it like a conflict that raced the commit.
  if (fault_ != nullptr && fault_->commit_abort(core)) {
    self_doom(core, AbortCause::kConflict);
    return;
  }
  PerCore& p = cores_[core];
  assert(p.active && !p.doomed);
  const TxFootprint fp = mem_.tx_footprint(core);
  // Apply the write overlay to committed memory (gang-commit), validating
  // still-speculating readers whose read sets the commit overwrites. Lines
  // are applied in address order: reader validation dooms conflicting
  // readers and records the triggering line, so hash-order application
  // would attribute the doom to a different line on a different stdlib.
  commit_lines_.clear();
  for (const auto& [line, ov] : p.overlay) commit_lines_.push_back(line);
  std::sort(commit_lines_.begin(), commit_lines_.end());
  for (const Addr line : commit_lines_) {
    const auto& ov = p.overlay.find(line)->second;
    mem_.validate_readers_at_commit(core, line, ov.mask);
    // MUTATION kLostUpdateCommit: the gang-commit silently drops the
    // highest-addressed overlay line's data (readers were still validated,
    // so only the write-back is lost). Killed by the strict-serializability
    // replay and by value-conservation workload oracles.
    if (lose_update_commit_ && line == commit_lines_.back()) continue;
    backing_.write_line(line, ov.mask, ov.data.data());
  }
  p.overlay.clear();
  mem_.clear_spec(core, /*discard_written_lines=*/false);
  p.active = false;
  kernel_.note_progress();  // feeds the livelock watchdog
  // Completion resets the starvation window and repays the karma debt.
  p.karma = 0;
  p.consec_aborts = 0;
  if (p.first_commit == 0) p.first_commit = kernel_.now();
  const Cycle duration = kernel_.now() - p.tx_start;
  stats_.tx_busy_cycles += duration;
  stats_.on_tx_commit();
  stats_.on_tx_latency(kernel_.now() - p.logical_start);
  stats_.on_attempt_end(duration, fp.read_lines, fp.write_lines,
                        /*aborted=*/false);
  if (scheduler_) scheduler_->on_tx_end(core, /*aborted=*/false);
  if (hub_) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kCommit;
    ev.core = core;
    ev.cycle = kernel_.now();
    ev.span_begin = p.tx_start;
    ev.retries = p.retries;
    ev.wasted = p.wasted;
    ev.read_lines = fp.read_lines;
    ev.write_lines = fp.write_lines;
    ev.read_subs = fp.read_subs;
    ev.write_subs = fp.write_subs;
    hub_->emit(ev);
  }
}

std::uint32_t AsfRuntime::finish_abort(CoreId core) {
  PerCore& p = cores_[core];
  assert(p.active && p.doomed);
  stats_.on_tx_abort(p.cause);
  const Cycle duration = kernel_.now() - p.tx_start;
  stats_.tx_busy_cycles += duration;
  stats_.on_attempt_end(duration, p.abort_fp.read_lines,
                        p.abort_fp.write_lines, /*aborted=*/true);
  p.wasted += duration;
  p.wasted_total += duration;
  // Starvation/karma accounting (always on — host-side only). Lock-wait
  // aborts are excluded: while another core runs irrevocably under the
  // fallback lock, every waiter "aborts" with kLockWait by design, and
  // counting those as starvation would make the serialize policy — the one
  // with the strongest progress guarantee — look the most starved.
  if (p.cause != AbortCause::kLockWait) {
    constexpr std::uint32_t kKarmaCap = 1u << 20;  // saturate, never wrap
    if (p.karma < kKarmaCap) ++p.karma;
    ++p.consec_aborts;
    if (p.consec_aborts > p.max_consec_aborts) {
      p.max_consec_aborts = p.consec_aborts;
    }
  }
  p.active = false;
  p.doomed = false;
  if (scheduler_) scheduler_->on_tx_end(core, /*aborted=*/true);
  if (hub_) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kAbort;
    ev.core = core;
    ev.cycle = kernel_.now();
    ev.span_begin = p.tx_start;
    ev.cause = p.cause;
    ev.wasted = duration;  // this attempt's own in-tx cycles
    ev.read_lines = p.abort_fp.read_lines;
    ev.write_lines = p.abort_fp.write_lines;
    ev.read_subs = p.abort_fp.read_subs;
    ev.write_subs = p.abort_fp.write_subs;
    hub_->emit(ev);
  }
  return ++p.retries;
}

void AsfRuntime::note_fallback_acquired(CoreId core) {
  ++stats_.cm_fallback_acquisitions;
  if (hub_ && cm_active_) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kFallbackAcquired;
    ev.core = core;
    ev.cycle = kernel_.now();
    ev.span_begin = cores_[core].fallback_start;  // spin began here
    ev.retries = cores_[core].retries;
    hub_->emit(ev);
  }
}

void AsfRuntime::note_fallback(CoreId core) {
  PerCore& p = cores_[core];
  if (hub_) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kFallback;
    ev.core = core;
    ev.cycle = kernel_.now();
    ev.span_begin = p.fallback_start;
    ev.retries = p.retries;
    ev.wasted = p.wasted;
    hub_->emit(ev);
  }
  // Fallback completion ends the logical transaction that began at the
  // first hardware attempt; its latency includes every failed attempt.
  stats_.on_tx_latency(kernel_.now() - p.logical_start);
  p.retries = 0;
  p.wasted = 0;
  ++stats_.fallback_runs;
  ++stats_.tx_commits;  // the work did complete exactly once
  kernel_.note_progress();  // fallback completions are progress too
  // A fallback completion ends the starvation window like a commit does.
  p.karma = 0;
  p.consec_aborts = 0;
  if (p.first_commit == 0) p.first_commit = kernel_.now();
}

void AsfRuntime::flush_cm_stats() {
  stats_.cm_enabled = true;
  stats_.cm_max_consec_aborts.clear();
  stats_.cm_wasted_by_core.clear();
  stats_.cm_first_commit_cycle.clear();
  for (const PerCore& p : cores_) {
    stats_.cm_max_consec_aborts.push_back(p.max_consec_aborts);
    stats_.cm_wasted_by_core.push_back(p.wasted_total);
    stats_.cm_first_commit_cycle.push_back(p.first_commit);
  }
}

void AsfRuntime::note_backoff(CoreId core, Cycle wait) {
  stats_.on_backoff(wait);
  if (hub_) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kBackoff;
    ev.core = core;
    ev.span_begin = kernel_.now();
    ev.cycle = kernel_.now() + wait;  // span events are stamped at the end
    hub_->emit(ev);
  }
}

std::uint64_t AsfRuntime::read_value(CoreId core, Addr a,
                                     std::uint32_t size) const {
  std::uint64_t v = backing_.read(a, size);
  const PerCore& p = cores_[core];
  if (!p.active || p.overlay.empty()) return v;
  auto it = p.overlay.find(line_of(a));
  if (it == p.overlay.end()) return v;
  const OverlayLine& ov = it->second;
  const std::uint32_t off = line_offset(a);
  // The access's slice of the overlay mask, one bit per byte of `v`.
  const auto bits = static_cast<std::uint32_t>(ov.mask >> off) &
                    ((1u << size) - 1);
  if (bits == 0) return v;
  const std::uint64_t lanes = byte_lanes(bits);
  return (v & ~lanes) | (load_bytes(ov.data.data() + off, size) & lanes);
}

void AsfRuntime::write_value(CoreId core, Addr a, std::uint32_t size,
                             std::uint64_t v) {
  PerCore& p = cores_[core];
  if (!p.active || p.doomed) {
    backing_.write(a, size, v);
    return;
  }
  OverlayLine& ov = p.overlay[line_of(a)];
  const std::uint32_t off = line_offset(a);
  store_bytes(ov.data.data() + off, size, v);
  ov.mask |= byte_mask(off, size);
}

}  // namespace asfsim
