#include "trace/summary.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "stats/counters.hpp"
#include "stats/report.hpp"
#include "trace/jsonl.hpp"

namespace asfsim::trace {

namespace {

constexpr std::size_t kTimelineBuckets = 10;

std::string hex_line(Addr line) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(line));
  return buf;
}

}  // namespace

void TraceSummary::add(const TraceEvent& ev) {
  ++total_events;
  ++by_kind[static_cast<std::size_t>(ev.kind)];
  if (total_events == 1 || ev.cycle < first_cycle) first_cycle = ev.cycle;
  if (ev.cycle > last_cycle) last_cycle = ev.cycle;
  if (ev.core != kInvalidCore && ev.core + 1 > ncores) ncores = ev.core + 1;
  if (ev.other != kInvalidCore && ev.other + 1 > ncores) {
    ncores = ev.other + 1;
  }
  switch (ev.kind) {
    case TraceEventKind::kConflict: {
      LineCounts& lc = by_line[ev.line];
      if (ev.is_false) {
        ++lc.false_conflicts;
      } else {
        ++lc.true_conflicts;
      }
      ++by_pair[{ev.other, ev.core}];  // (requester, victim)
      break;
    }
    case TraceEventKind::kAbort:
      ++aborts_by_cause[static_cast<std::size_t>(ev.cause)];
      abort_samples.emplace_back(ev.cycle, ev.cause);
      wasted_cycles += ev.wasted;
      if (ev.core != kInvalidCore && ev.cause != AbortCause::kLockWait) {
        if (ev.core >= consec_aborts.size()) {
          consec_aborts.resize(ev.core + 1, 0);
          max_consec_aborts.resize(ev.core + 1, 0);
        }
        const std::uint32_t streak = ++consec_aborts[ev.core];
        if (streak > max_consec_aborts[ev.core]) {
          max_consec_aborts[ev.core] = streak;
        }
      }
      break;
    case TraceEventKind::kCommit:
    case TraceEventKind::kFallback:
      ++committed_tx;
      ++commit_latency_hist[Stats::log2_bucket(ev.cycle - ev.span_begin,
                                               commit_latency_hist.size())];
      if (ev.core != kInvalidCore && ev.core < consec_aborts.size()) {
        consec_aborts[ev.core] = 0;
      }
      break;
    case TraceEventKind::kPolicy:
      if (ev.loser == ev.other) ++requester_losses;
      break;
    default:
      break;
  }
}

bool summarize_jsonl(std::istream& in, TraceSummary& out, std::string& err) {
  return for_each_jsonl_event(
      in, [&out](const TraceEvent& ev) { out.add(ev); }, err);
}

void print_summary(const TraceSummary& s, std::ostream& os, int top_n) {
  os << "events: " << s.total_events << " over cycles [" << s.first_cycle
     << ", " << s.last_cycle << "]\n";
  {
    TextTable t({"Kind", "Count"});
    for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
      t.add_row({to_string(static_cast<TraceEventKind>(k)),
                 std::to_string(s.by_kind[k])});
    }
    t.print(os);
  }

  // Top conflicting lines, by total conflicts then address. The false
  // counts per line are exactly the run's Fig-4 histogram
  // (Stats::false_by_line) — tested in tests/test_trace.cpp.
  os << "\nTop conflicting lines:\n";
  {
    std::vector<std::pair<Addr, TraceSummary::LineCounts>> lines(
        s.by_line.begin(), s.by_line.end());
    std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
      if (a.second.total() != b.second.total()) {
        return a.second.total() > b.second.total();
      }
      return a.first < b.first;
    });
    if (lines.size() > static_cast<std::size_t>(top_n)) lines.resize(top_n);
    TextTable t({"Line", "Conflicts", "False", "True"});
    for (const auto& [line, lc] : lines) {
      t.add_row({hex_line(line), std::to_string(lc.total()),
                 std::to_string(lc.false_conflicts),
                 std::to_string(lc.true_conflicts)});
    }
    t.print(os);
  }

  os << "\nHottest core pairs (requester -> victim):\n";
  {
    std::vector<std::pair<std::pair<CoreId, CoreId>, std::uint64_t>> pairs(
        s.by_pair.begin(), s.by_pair.end());
    std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (pairs.size() > static_cast<std::size_t>(top_n)) pairs.resize(top_n);
    TextTable t({"Requester", "Victim", "Conflicts"});
    for (const auto& [pair, count] : pairs) {
      t.add_row({std::to_string(pair.first), std::to_string(pair.second),
                 std::to_string(count)});
    }
    t.print(os);
  }

  os << "\nConflict matrix (rows = requester, cols = victim):\n";
  {
    std::vector<std::string> headers{"req\\vic"};
    for (CoreId c = 0; c < s.ncores; ++c) {
      headers.push_back(std::to_string(c));
    }
    TextTable t(headers);
    for (CoreId r = 0; r < s.ncores; ++r) {
      std::vector<std::string> row{std::to_string(r)};
      for (CoreId v = 0; v < s.ncores; ++v) {
        const auto it = s.by_pair.find({r, v});
        row.push_back(std::to_string(it == s.by_pair.end() ? 0 : it->second));
      }
      t.add_row(std::move(row));
    }
    t.print(os);
  }

  os << "\nAbort-cause timeline (" << kTimelineBuckets << " buckets of "
     << (s.last_cycle / kTimelineBuckets + 1) << " cycles):\n";
  {
    const Cycle width = s.last_cycle / kTimelineBuckets + 1;
    std::array<std::array<std::uint64_t, 4>, kTimelineBuckets> buckets{};
    for (const auto& [cycle, cause] : s.abort_samples) {
      std::size_t b = static_cast<std::size_t>(cycle / width);
      if (b >= kTimelineBuckets) b = kTimelineBuckets - 1;
      ++buckets[b][static_cast<std::size_t>(cause)];
    }
    TextTable t({"From cycle", "conflict", "capacity", "user", "lock-wait"});
    for (std::size_t b = 0; b < kTimelineBuckets; ++b) {
      t.add_row({std::to_string(b * width), std::to_string(buckets[b][0]),
                 std::to_string(buckets[b][1]), std::to_string(buckets[b][2]),
                 std::to_string(buckets[b][3])});
    }
    t.print(os);
  }

  os << "\naborts: " << s.by_kind[static_cast<std::size_t>(
                            TraceEventKind::kAbort)]
     << "  commits: "
     << s.by_kind[static_cast<std::size_t>(TraceEventKind::kCommit)]
     << "  wasted cycles in aborted attempts: " << s.wasted_cycles << "\n";

  // Throughput & latency (OLTP reporting; docs/workloads.md): completed
  // transactions per simulated second at the Stats clock rate, plus span
  // percentiles reusing Stats' histogram interpolation.
  const Cycle extent = s.last_cycle - s.first_cycle + 1;
  const double commits_per_s =
      s.total_events == 0
          ? 0.0
          : static_cast<double>(s.committed_tx) * Stats::kSimClockHz /
                static_cast<double>(extent);
  Stats lat;
  lat.tx_latency_hist = s.commit_latency_hist;
  os << "completed tx: " << s.committed_tx << "  simulated throughput: "
     << TextTable::num(commits_per_s, 0) << " commits/s (at "
     << TextTable::num(Stats::kSimClockHz / 1e9, 1) << " GHz)\n";
  os << "commit-span latency percentiles (cycles): p50 "
     << TextTable::num(lat.latency_percentile(0.50), 0) << "  p95 "
     << TextTable::num(lat.latency_percentile(0.95), 0) << "  p99 "
     << TextTable::num(lat.latency_percentile(0.99), 0) << "\n";

  // Forward progress / contention (docs/contention.md): starvation is
  // visible as a long per-core abort streak; the policy/fallback counters
  // show whether a contention policy was active and how often the
  // serialize escalation engaged.
  const std::uint64_t total_aborts =
      s.kind_count(TraceEventKind::kAbort);
  const double aborts_per_tx =
      s.committed_tx == 0 ? 0.0
                          : static_cast<double>(total_aborts) /
                                static_cast<double>(s.committed_tx);
  os << "\nForward progress:\n";
  os << "aborts per committed tx: " << TextTable::num(aborts_per_tx, 2)
     << "  policy decisions: " << s.kind_count(TraceEventKind::kPolicy)
     << " (requester lost " << s.requester_losses << ")"
     << "  fallback acquisitions: "
     << s.kind_count(TraceEventKind::kFallbackAcquired) << "\n";
  {
    TextTable t({"Core", "Max consecutive aborts"});
    for (CoreId c = 0; c < s.ncores; ++c) {
      const std::uint32_t m =
          c < s.max_consec_aborts.size() ? s.max_consec_aborts[c] : 0;
      t.add_row({std::to_string(c), std::to_string(m)});
    }
    t.print(os);
  }
}

}  // namespace asfsim::trace
