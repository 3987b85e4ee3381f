#include "trace/sink.hpp"

namespace asfsim::trace {

const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kBegin: return "begin";
    case TraceEventKind::kCommit: return "commit";
    case TraceEventKind::kAbort: return "abort";
    case TraceEventKind::kConflict: return "conflict";
    case TraceEventKind::kAvoided: return "avoided";
    case TraceEventKind::kFallback: return "fallback";
    case TraceEventKind::kBackoff: return "backoff";
    case TraceEventKind::kCounter: return "counter";
    case TraceEventKind::kSite: return "site";
    case TraceEventKind::kPolicy: return "policy";
    case TraceEventKind::kFallbackAcquired: return "fallback-acquired";
  }
  return "?";
}

TraceEvent conflict_event(TraceEventKind kind, const ConflictRecord& rec,
                          const prov::ProvCollector::Attribution* at) {
  TraceEvent ev;
  ev.kind = kind;
  ev.core = rec.victim;
  ev.other = rec.requester;
  ev.cycle = rec.cycle;
  ev.line = rec.line;
  if (kind == TraceEventKind::kPolicy) return ev;
  ev.type = rec.type;
  ev.is_false = rec.is_false;
  ev.probe_mask = rec.probe_bytes;
  ev.victim_mask = rec.victim_bytes;
  if (at != nullptr) {
    ev.has_prov = true;
    ev.victim_site = at->victim_site;
    ev.victim_obj = at->victim_obj;
    ev.victim_sub = at->victim_sub;
    ev.req_site = at->req_site;
    ev.req_obj = at->req_obj;
  }
  return ev;
}

void TraceHub::emit(const TraceEvent& ev) {
  if (sinks_.empty()) return;
  // kBackoff is the one future-dated event (timestamped at its end while
  // emitted at its start); sample on the emission cycle to keep the
  // counter cadence monotone with the stream.
  const Cycle now =
      ev.kind == TraceEventKind::kBackoff ? ev.span_begin : ev.cycle;
  if (interval_ != 0 && now >= next_sample_) {
    const Cycle at = now - (now % interval_);
    sample_counters(at);
    next_sample_ = at + interval_;
  }
  switch (ev.kind) {
    case TraceEventKind::kBegin:
      ++live_tx_;
      break;
    case TraceEventKind::kCommit:
    case TraceEventKind::kAbort:
      if (live_tx_ > 0) --live_tx_;
      break;
    default:
      break;
  }
  fan_out(ev);
}

void TraceHub::finish(Cycle final_cycle) {
  if (sinks_.empty() || finished_) return;
  finished_ = true;
  if (interval_ != 0) sample_counters(final_cycle);
  for (TraceSink* s : sinks_) s->finish(final_cycle);
}

void TraceHub::sample_counters(Cycle at) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kCounter;
  ev.cycle = at;
  ev.live_tx = live_tx_;
  ev.commits = stats_->tx_commits;
  ev.aborts = stats_->tx_aborts;
  ev.bus_wait = stats_->bus_wait_cycles;
  fan_out(ev);
}

void TraceHub::fan_out(const TraceEvent& ev) {
  for (TraceSink* s : sinks_) s->on_event(ev);
}

}  // namespace asfsim::trace
