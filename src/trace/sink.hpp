// TraceSink: pluggable consumer of the full-timeline event stream, and
// TraceHub: the fan-out point the simulator emits into.
//
// The hub is owned by Machine. It stays empty (and the runtime/memory
// system hold null hub pointers) until the first sink is attached, so
// disabled tracing costs exactly one null-pointer branch per would-be
// event. With sinks attached the hub forwards every event to each sink
// in attach order and interleaves periodic kCounter samples — lazily, at
// interval boundaries crossed by the incoming event stream, so the
// sample cadence is a pure function of the (deterministic) event stream.
#pragma once

#include <cstdint>
#include <vector>

#include "prov/collector.hpp"
#include "stats/counters.hpp"
#include "trace/event.hpp"

namespace asfsim::trace {

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;

  virtual void on_event(const TraceEvent& ev) = 0;
  /// End of run: flush footers/close framing. Called exactly once.
  virtual void finish(Cycle /*final_cycle*/) {}
};

class TraceHub {
 public:
  static constexpr Cycle kDefaultCounterInterval = 8192;

  explicit TraceHub(const Stats* stats) : stats_(stats) {}

  /// Attach a non-owning sink; events flow to sinks in attach order.
  void add_sink(TraceSink* sink) { sinks_.push_back(sink); }
  [[nodiscard]] bool empty() const { return sinks_.empty(); }

  /// Counter-sample cadence in cycles (0 disables sampling).
  void set_counter_interval(Cycle interval) {
    interval_ = interval;
    next_sample_ = interval;
  }
  [[nodiscard]] Cycle counter_interval() const { return interval_; }

  /// Fan one event out to every sink, emitting a counter sample first
  /// when the event crosses an interval boundary.
  void emit(const TraceEvent& ev);

  /// Final counter sample + sink finish. Idempotent; no-op when empty.
  void finish(Cycle final_cycle);

 private:
  void sample_counters(Cycle at);
  void fan_out(const TraceEvent& ev);

  std::vector<TraceSink*> sinks_;
  const Stats* stats_;
  Cycle interval_ = kDefaultCounterInterval;
  Cycle next_sample_ = kDefaultCounterInterval;
  std::uint32_t live_tx_ = 0;
  bool finished_ = false;
};

/// The event a detected conflict traces as: the victim as `core` and the
/// requester as `other`, at the record's cycle and line. kConflict and
/// kAvoided also carry its type and byte masks, plus `at`'s provenance
/// when given; kPolicy carries only the shared fields (the caller adds the
/// loser).
[[nodiscard]] TraceEvent conflict_event(
    TraceEventKind kind, const ConflictRecord& rec,
    const prov::ProvCollector::Attribution* at = nullptr);

}  // namespace asfsim::trace
