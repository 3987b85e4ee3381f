// Tests for the full-timeline tracing subsystem (src/trace/): JSONL
// round-trips, trace↔Stats cross-checks, Perfetto structure, the sim-cycle
// log prefix, and the new Stats histograms.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "guest/machine.hpp"
#include "sim/log.hpp"
#include "stats/serialize.hpp"
#include "trace/clock.hpp"
#include "trace/jsonl.hpp"
#include "trace/perfetto_sink.hpp"
#include "trace/summary.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

// ---- JSONL round-trip -------------------------------------------------------

bool events_equal(const trace::TraceEvent& a, const trace::TraceEvent& b) {
  return a.kind == b.kind && a.core == b.core && a.other == b.other &&
         a.cycle == b.cycle && a.span_begin == b.span_begin &&
         a.cause == b.cause && a.type == b.type && a.is_false == b.is_false &&
         a.line == b.line && a.probe_mask == b.probe_mask &&
         a.victim_mask == b.victim_mask && a.retries == b.retries &&
         a.wasted == b.wasted && a.read_lines == b.read_lines &&
         a.write_lines == b.write_lines && a.read_subs == b.read_subs &&
         a.write_subs == b.write_subs && a.live_tx == b.live_tx &&
         a.commits == b.commits && a.aborts == b.aborts &&
         a.bus_wait == b.bus_wait && a.has_prov == b.has_prov &&
         a.victim_site == b.victim_site && a.victim_obj == b.victim_obj &&
         a.victim_sub == b.victim_sub && a.req_site == b.req_site &&
         a.req_obj == b.req_obj && a.loser == b.loser &&
         a.site_id == b.site_id &&
         a.site_obj_size == b.site_obj_size &&
         a.site_objects == b.site_objects && a.site_bytes == b.site_bytes &&
         a.site_name == b.site_name;
}

TEST(TraceJsonl, RoundTripsEveryKind) {
  std::vector<trace::TraceEvent> events;
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kBegin;
    ev.core = 3;
    ev.cycle = 42;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kCommit;
    ev.core = 1;
    ev.cycle = 900;
    ev.span_begin = 800;
    ev.retries = 2;
    ev.wasted = 77;
    ev.read_lines = 5;
    ev.write_lines = 2;
    ev.read_subs = 9;
    ev.write_subs = 3;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kAbort;
    ev.core = 2;
    ev.cycle = 500;
    ev.span_begin = 450;
    ev.cause = AbortCause::kCapacity;
    ev.wasted = 50;
    ev.read_lines = 1;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kConflict;
    ev.core = 0;
    ev.other = 7;
    ev.cycle = 123;
    ev.line = 0x2c0;
    ev.type = ConflictType::kWAW;
    ev.is_false = true;
    ev.probe_mask = 0xff;
    ev.victim_mask = 0xff00;
    ev.has_prov = true;
    ev.victim_site = 3;
    ev.victim_obj = 17;
    ev.victim_sub = 2;
    ev.req_site = 1;
    ev.req_obj = 4;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kAvoided;
    ev.core = 4;
    ev.other = 5;
    ev.cycle = 321;
    ev.line = 0x340;
    ev.probe_mask = 1;
    ev.victim_mask = 2;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kFallback;
    ev.core = 6;
    ev.cycle = 2000;
    ev.span_begin = 1500;
    ev.retries = 24;
    ev.wasted = 400;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kBackoff;
    ev.core = 1;
    ev.cycle = 260;
    ev.span_begin = 250;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kCounter;
    ev.cycle = 8192;
    ev.live_tx = 3;
    ev.commits = 100;
    ev.aborts = 20;
    ev.bus_wait = 999;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kSite;
    // kSite is run metadata, not a timeline point: no core/cycle keys.
    ev.site_id = 2;
    ev.site_name = "oltp.record";
    ev.site_obj_size = 24;
    ev.site_objects = 512;
    ev.site_bytes = 12288;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kPolicy;
    ev.core = 2;   // victim
    ev.other = 5;  // requester
    ev.loser = 5;  // policy ruled against the requester
    ev.cycle = 777;
    ev.line = 0x680;
    events.push_back(ev);
  }
  {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kFallbackAcquired;
    ev.core = 3;
    ev.cycle = 4200;
    ev.span_begin = 4000;
    ev.retries = 9;
    events.push_back(ev);
  }
  ASSERT_EQ(events.size(), trace::kTraceEventKinds);

  for (const auto& ev : events) {
    std::string line;
    trace::to_jsonl(ev, line);
    EXPECT_EQ(line.back(), '\n');
    trace::TraceEvent back;
    ASSERT_TRUE(trace::from_jsonl(line, back)) << line;
    EXPECT_TRUE(events_equal(ev, back)) << line;
  }
}

TEST(TraceJsonl, RejectsMalformedLines) {
  trace::TraceEvent ev;
  EXPECT_FALSE(trace::from_jsonl("", ev));
  EXPECT_FALSE(trace::from_jsonl("{}", ev));
  EXPECT_FALSE(trace::from_jsonl("{\"kind\":\"nope\"}", ev));
  EXPECT_FALSE(trace::from_jsonl("{\"core\":1}", ev));  // kind must lead
  EXPECT_FALSE(
      trace::from_jsonl("{\"kind\":\"begin\",\"bogus\":1}", ev));
  EXPECT_TRUE(trace::from_jsonl("{\"kind\":\"begin\",\"core\":1,\"cycle\":2}",
                                ev));
}

// ---- simulation-integrated checks ------------------------------------------

/// Run `workload` on a small conflict-heavy machine, optionally streaming
/// JSONL into `jsonl`.
Stats run_traced(const std::string& workload, std::ostringstream* jsonl) {
  SimConfig sim;
  sim.ncores = 4;
  Machine m(sim, DetectorKind::kBaseline);
  std::unique_ptr<trace::JsonlSink> sink;
  if (jsonl != nullptr) {
    sink = std::make_unique<trace::JsonlSink>(*jsonl);
    m.add_trace_sink(sink.get());
  }
  WorkloadParams params;
  params.threads = 4;
  params.scale = 0.25;
  auto wl = make_workload(workload);
  wl->setup(m, params);
  m.run();
  EXPECT_EQ(wl->validate(m), "");
  return m.stats();
}

TEST(TraceIntegration, SummaryFalseCountsMatchStatsFalseByLine) {
  std::ostringstream jsonl;
  const Stats stats = run_traced("counter", &jsonl);
  ASSERT_GT(stats.conflicts_total, 0u);

  std::istringstream in(jsonl.str());
  trace::TraceSummary s;
  std::string err;
  ASSERT_TRUE(trace::summarize_jsonl(in, s, err)) << err;

  // Every doomed conflict shows up exactly once in the trace, so the
  // per-line false-conflict counts must reproduce Stats::false_by_line
  // (the Fig-4 histogram) exactly.
  std::uint64_t false_total = 0;
  for (const auto& [line, counts] : s.by_line) {
    false_total += counts.false_conflicts;
    const auto it = stats.false_by_line.find(line);
    if (counts.false_conflicts == 0) continue;
    ASSERT_NE(it, stats.false_by_line.end()) << "line " << std::hex << line;
    EXPECT_EQ(counts.false_conflicts, it->second)
        << "line " << std::hex << line;
  }
  EXPECT_EQ(false_total, stats.conflicts_false);
  EXPECT_EQ(
      s.by_kind[static_cast<std::size_t>(trace::TraceEventKind::kConflict)],
      stats.conflicts_total);
  EXPECT_EQ(
      s.by_kind[static_cast<std::size_t>(trace::TraceEventKind::kCommit)] +
          s.by_kind[static_cast<std::size_t>(trace::TraceEventKind::kFallback)],
      stats.tx_commits);
  EXPECT_EQ(
      s.by_kind[static_cast<std::size_t>(trace::TraceEventKind::kAbort)],
      stats.tx_aborts);

  std::ostringstream report;
  trace::print_summary(s, report, 5);
  EXPECT_NE(report.str().find("Top conflicting lines"), std::string::npos);
  EXPECT_NE(report.str().find("Conflict matrix"), std::string::npos);
}

TEST(TraceIntegration, TracingDoesNotPerturbTheSimulation) {
  std::ostringstream jsonl;
  const Stats off = run_traced("counter", nullptr);
  const Stats on = run_traced("counter", &jsonl);
  EXPECT_EQ(off.total_cycles, on.total_cycles);
  EXPECT_EQ(serialize_stats(off), serialize_stats(on));
  EXPECT_FALSE(jsonl.str().empty());
}

TEST(TraceIntegration, JsonlStreamIsDeterministic) {
  std::ostringstream a, b;
  (void)run_traced("counter", &a);
  (void)run_traced("counter", &b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(TracePerfetto, EmitsWellFormedStructure) {
  SimConfig sim;
  sim.ncores = 4;
  Machine m(sim, DetectorKind::kBaseline);
  std::ostringstream os;
  trace::PerfettoSink sink(os);
  m.add_trace_sink(&sink);
  WorkloadParams params;
  params.threads = 4;
  params.scale = 0.25;
  auto wl = make_workload("counter");
  wl->setup(m, params);
  m.run();

  const std::string out = os.str();
  EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"core 0\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // tx spans
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // conflicts
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(out.find("\"name\":\"live_tx\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"abort_rate\""), std::string::npos);
  // Closed exactly once (Machine::run calls TraceHub::finish).
  EXPECT_EQ(out.find("\n]}\n"), out.size() - 4);
}

// ---- sim-cycle log prefix ---------------------------------------------------

Cycle fake_clock(const void* ctx) {
  return *static_cast<const Cycle*>(ctx);
}

TEST(TraceClock, LogPrefixCarriesTheSimulatedCycle) {
  EXPECT_EQ(detail::log_prefix("info"), "[asfsim info ] ");
  EXPECT_EQ(detail::log_prefix("trace"), "[asfsim trace] ");
  const Cycle cycle = 42;
  {
    const trace::ScopedSimClock clock(&fake_clock, &cycle);
    EXPECT_EQ(detail::log_prefix("info"), "[asfsim info  @42] ");
    Cycle out = 0;
    EXPECT_TRUE(trace::current_sim_cycle(out));
    EXPECT_EQ(out, 42u);
  }
  Cycle out = 0;
  EXPECT_FALSE(trace::current_sim_cycle(out));
  EXPECT_EQ(detail::log_prefix("info"), "[asfsim info ] ");
}

// ---- Stats histogram + serialization additions ------------------------------

TEST(StatsHistograms, Log2BucketSaturates) {
  EXPECT_EQ(Stats::log2_bucket(0, 16), 0u);
  EXPECT_EQ(Stats::log2_bucket(1, 16), 1u);
  EXPECT_EQ(Stats::log2_bucket(2, 16), 2u);
  EXPECT_EQ(Stats::log2_bucket(3, 16), 2u);
  EXPECT_EQ(Stats::log2_bucket(4, 16), 3u);
  EXPECT_EQ(Stats::log2_bucket(~std::uint64_t{0}, 16), 15u);
}

TEST(StatsHistograms, AttemptEndFeedsHistogramsAndWaste) {
  Stats s;
  s.on_attempt_end(/*duration=*/100, /*read_lines=*/4, /*write_lines=*/1,
                   /*aborted=*/false);
  s.on_attempt_end(/*duration=*/200, /*read_lines=*/2, /*write_lines=*/0,
                   /*aborted=*/true);
  s.on_backoff(55);
  EXPECT_EQ(s.tx_duration_hist[Stats::log2_bucket(100, 32)], 1u);
  EXPECT_EQ(s.tx_duration_hist[Stats::log2_bucket(200, 32)], 1u);
  EXPECT_EQ(s.tx_read_lines_hist[Stats::log2_bucket(4, 16)], 1u);
  EXPECT_EQ(s.tx_write_lines_hist[Stats::log2_bucket(0, 16)], 1u);
  EXPECT_EQ(s.wasted_cycles, 200u);
  EXPECT_EQ(s.backoff_cycles, 55u);

  Stats back;
  ASSERT_TRUE(deserialize_stats(serialize_stats(s), back));
  EXPECT_EQ(back.tx_duration_hist, s.tx_duration_hist);
  EXPECT_EQ(back.tx_read_lines_hist, s.tx_read_lines_hist);
  EXPECT_EQ(back.tx_write_lines_hist, s.tx_write_lines_hist);
  EXPECT_EQ(back.wasted_cycles, 200u);
  EXPECT_EQ(back.backoff_cycles, 55u);
}

TEST(StatsHistograms, RealRunPopulatesHistograms) {
  const Stats s = run_traced("counter", nullptr);
  std::uint64_t durations = 0;
  for (const auto v : s.tx_duration_hist) durations += v;
  EXPECT_EQ(durations, s.tx_commits - s.fallback_runs + s.tx_aborts);
  EXPECT_GT(s.wasted_cycles, 0u);
  EXPECT_GT(s.backoff_cycles, 0u);
}

}  // namespace
}  // namespace asfsim
