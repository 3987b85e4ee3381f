// Streaming JSONL trace format: one JSON object per line, one line per
// TraceEvent, written with fixed key order and plain decimal integers so
// a fixed workload+seed produces byte-identical files on every host,
// worker count, and cache state. Round-trippable: from_jsonl parses what
// to_jsonl writes (the asfsim_trace CLI and the determinism tests rely on
// this). Field sets per kind are documented in docs/observability.md.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/sink.hpp"

namespace asfsim::trace {

/// Append `ev` to `out` as one JSONL line (including the trailing '\n').
void to_jsonl(const TraceEvent& ev, std::string& out);

/// Parse one JSONL line (with or without trailing '\n'); returns false on
/// malformed input, leaving `out` unspecified.
[[nodiscard]] bool from_jsonl(std::string_view line, TraceEvent& out);

/// Parse a JSONL stream, calling `fn` on each event (blank lines skipped).
/// On a malformed line, fills `err` ("malformed trace event on line N") and
/// returns false.
[[nodiscard]] bool for_each_jsonl_event(
    std::istream& in, const std::function<void(const TraceEvent&)>& fn,
    std::string& err);

/// Sink streaming every event as JSONL into `os` (non-owning).
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void on_event(const TraceEvent& ev) override;
  void finish(Cycle final_cycle) override;

 private:
  std::ostream& os_;
  std::string buf_;
};

}  // namespace asfsim::trace
