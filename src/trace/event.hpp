// TraceEvent: one record in the full-timeline trace stream.
//
// A rich event vocabulary: transaction spans carry retry counts, read/write-set
// footprints and wasted cycles; conflict instants carry the victim's and
// requester's byte masks; counter samples snapshot run-level rates every
// K cycles. Events are emitted by AsfRuntime/MemorySystem through a
// TraceHub (trace/sink.hpp) and consumed by pluggable sinks — the
// streaming JSONL sink and the Perfetto exporter.
// See docs/observability.md for the format contract.
#pragma once

#include <cstdint>
#include <string>

#include "core/conflict.hpp"
#include "mem/addr.hpp"
#include "sim/types.hpp"

namespace asfsim::trace {

enum class TraceEventKind : std::uint8_t {
  kBegin = 0,   // transaction attempt starts
  kCommit,      // attempt committed (span: span_begin..cycle)
  kAbort,       // attempt aborted   (span: span_begin..cycle)
  kConflict,    // victim's view of the conflict that doomed it (instant)
  kAvoided,     // finer detector declined a baseline conflict (instant)
  kFallback,    // body completed under the software lock (span)
  kBackoff,     // abort-penalty + backoff stall (span; emitted at start,
                // timestamped at its END: span_begin..cycle)
  kCounter,     // periodic counter sample (live tx, commits, aborts, bus)
  kSite,        // allocation-site declaration (provenance runs only): id,
                // name, object size/count/bytes — emitted once per site at
                // run end so conflict events' site ids are decodable
  kPolicy,      // contention-policy decision (instant; cm-active runs only):
                // which side of a detected conflict lost
  kFallbackAcquired,  // fallback lock acquired — the serialize escalation
                      // engaged (instant; cm-active runs only; span_begin =
                      // spin start)
};

inline constexpr std::size_t kTraceEventKinds = 11;

[[nodiscard]] const char* to_string(TraceEventKind k);

/// One trace record. `cycle` is the event's primary timestamp (span END
/// for the span kinds); unused fields stay zero so serialization is
/// deterministic field-by-field.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kBegin;
  CoreId core = kInvalidCore;   // acting core (victim for conflict/avoided)
  CoreId other = kInvalidCore;  // requester for conflict/avoided
  Cycle cycle = 0;
  Cycle span_begin = 0;  // commit/abort/fallback/backoff: span start

  // kAbort
  AbortCause cause = AbortCause::kConflict;
  // kConflict / kAvoided
  ConflictType type = ConflictType::kWAR;
  bool is_false = false;
  Addr line = 0;
  ByteMask probe_mask = 0;
  ByteMask victim_mask = 0;

  // kCommit / kFallback (cumulative over the logical transaction);
  // for kAbort `wasted` is the aborted attempt's own in-tx cycles.
  std::uint32_t retries = 0;
  Cycle wasted = 0;

  // kCommit / kAbort: read/write-set footprint at transaction end.
  std::uint32_t read_lines = 0;
  std::uint32_t write_lines = 0;
  std::uint32_t read_subs = 0;
  std::uint32_t write_subs = 0;

  // kCounter: snapshot (commits/aborts/bus_wait are cumulative).
  std::uint32_t live_tx = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  Cycle bus_wait = 0;

  // kConflict / kAvoided provenance (docs/observability.md, "Conflict
  // provenance"). Only present — and only serialized — when the run was
  // executed with SimConfig::provenance; site ids are declared by the
  // kSite events at the end of the stream.
  bool has_prov = false;
  std::uint32_t victim_site = 0;
  std::uint64_t victim_obj = 0;
  std::uint32_t victim_sub = 0;  // sub-block index of the victim byte
  std::uint32_t req_site = 0;
  std::uint64_t req_obj = 0;

  // kPolicy: the core that lost the decision (== core when the victim
  // aborted — the usual outcome — or == other when the requester did).
  CoreId loser = kInvalidCore;

  // kSite: allocation-site declaration.
  std::uint32_t site_id = 0;
  std::uint64_t site_obj_size = 0;
  std::uint64_t site_objects = 0;
  std::uint64_t site_bytes = 0;
  std::string site_name;
};

}  // namespace asfsim::trace
