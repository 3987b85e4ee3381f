// asfsim_explore — interactive-grade CLI for running any workload under any
// detector/configuration and dumping the full statistics report.
//
//   $ asfsim_explore --workload vacation --detector subblock --nsub 4
//   $ asfsim_explore --workload ssca2 --detector perfect --scale 2 --seed 9
//   $ asfsim_explore --workload oltp --prov --trace-dir traces
//   $ asfsim_explore --list
//
// Tool flags: --workload (default counter), --detector (default baseline),
// --nsub (sub-blocks per line for the sub-block detectors), --ats (adaptive
// transaction scheduling) and --list (the registered workloads). Everything
// else is a common flag of src/harness/args.hpp: --scale/--threads/--seed,
// the robustness knobs (--fault-*, --mutate, --watchdog, --job-timeout;
// docs/robustness.md), the OLTP knobs (--oltp-*; docs/workloads.md),
// contention management (--cm-*; docs/contention.md), --prov, and
// --trace-dir/--trace-format, which write the run's full event timeline
// (docs/observability.md). --help lists every flag and the names --workload
// and --detector take. The runner flags (--csv, --jobs, --no-cache) are
// unknown flags here: the tool runs one experiment in-process.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness/args.hpp"
#include "harness/experiment.hpp"
#include "prov/collector.hpp"
#include "runner/job_spec.hpp"
#include "stats/report.hpp"
#include "workloads/workload.hpp"

using namespace asfsim;

namespace {

void print_report(const ExperimentResult& r, std::uint32_t threads) {
  const Stats& s = r.stats;
  std::printf("workload   : %s\n", r.workload.c_str());
  std::printf("detector   : %s\n", r.detector.c_str());
  std::printf("validated  : %s\n",
              r.ok() ? "ok" : r.validation_error.c_str());
  std::printf("\n-- transactions --\n");
  std::printf("attempts   : %llu\n", (unsigned long long)s.tx_attempts);
  std::printf("commits    : %llu\n", (unsigned long long)s.tx_commits);
  std::printf("aborts     : %llu  (conflict %llu, capacity %llu, user %llu, "
              "lock-wait %llu)\n",
              (unsigned long long)s.tx_aborts,
              (unsigned long long)s.aborts_by_cause[0],
              (unsigned long long)s.aborts_by_cause[1],
              (unsigned long long)s.aborts_by_cause[2],
              (unsigned long long)s.aborts_by_cause[3]);
  std::printf("avg retries: %.3f\n", s.avg_retries());
  std::printf("fallbacks  : %llu   ATS dispatches: %llu\n",
              (unsigned long long)s.fallback_runs,
              (unsigned long long)s.ats_serialized);
  std::printf("\n-- conflicts --\n");
  std::printf("total      : %llu\n", (unsigned long long)s.conflicts_total);
  std::printf("false      : %llu  (%.1f%%)\n",
              (unsigned long long)s.conflicts_false,
              100.0 * s.false_conflict_rate());
  std::printf("false types: WAR %llu, RAW %llu, WAW %llu\n",
              (unsigned long long)s.false_by_type[0],
              (unsigned long long)s.false_by_type[1],
              (unsigned long long)s.false_by_type[2]);
  std::printf("true types : WAR %llu, RAW %llu, WAW %llu\n",
              (unsigned long long)s.true_by_type[0],
              (unsigned long long)s.true_by_type[1],
              (unsigned long long)s.true_by_type[2]);
  std::printf("avoided    : %llu (baseline would have aborted)\n",
              (unsigned long long)s.false_conflicts_avoided);
  std::printf("analytic false survival @1/2/4/8/16 sub-blocks: "
              "%llu/%llu/%llu/%llu/%llu\n",
              (unsigned long long)s.false_surviving_at[0],
              (unsigned long long)s.false_surviving_at[1],
              (unsigned long long)s.false_surviving_at[2],
              (unsigned long long)s.false_surviving_at[3],
              (unsigned long long)s.false_surviving_at[4]);
  std::printf("\n-- memory system --\n");
  std::printf("accesses   : %llu (tx %llu)\n", (unsigned long long)s.accesses,
              (unsigned long long)s.tx_accesses);
  std::printf("L1 hits    : %llu   c2c: %llu   L2: %llu   L3: %llu   "
              "mem: %llu\n",
              (unsigned long long)s.l1_hits,
              (unsigned long long)s.c2c_transfers,
              (unsigned long long)s.l2_hits, (unsigned long long)s.l3_hits,
              (unsigned long long)s.mem_fetches);
  std::printf("probes     : %llu   piggy-back msgs: %llu   dirty "
              "refetches: %llu   upgrades: %llu\n",
              (unsigned long long)s.probes_sent,
              (unsigned long long)s.piggyback_messages,
              (unsigned long long)s.dirty_refetches,
              (unsigned long long)s.upgrades);
  std::printf("\n-- time --\n");
  std::printf("cycles     : %llu\n", (unsigned long long)s.total_cycles);
  std::printf("throughput : %.3g commits/simulated-second (%.1f GHz clock)\n",
              s.commits_per_simsec(), Stats::kSimClockHz / 1e9);
  std::printf("tx latency : p50 %.0f  p95 %.0f  p99 %.0f cycles "
              "(logical tx, incl. retries+backoff)\n",
              s.latency_percentile(0.50), s.latency_percentile(0.95),
              s.latency_percentile(0.99));
  std::printf("tx busy    : %llu cycles (%.1f%% duty over %u cores)\n",
              (unsigned long long)s.tx_busy_cycles,
              s.total_cycles == 0
                  ? 0.0
                  : 100.0 * double(s.tx_busy_cycles) /
                        (double(threads) * double(s.total_cycles)),
              threads);
  if (s.cm_enabled) {
    std::printf("\n-- contention management (--cm-stats) --\n");
    std::printf("policy decisions : %llu  (requester lost %llu)\n",
                (unsigned long long)s.cm_policy_decisions,
                (unsigned long long)s.cm_requester_losses);
    std::printf("fallback acquires: %llu\n",
                (unsigned long long)s.cm_fallback_acquisitions);
    std::printf("wasted-cycle gini: %.3f  (0 = perfectly fair)\n",
                s.cm_wasted_gini());
    std::printf("per-core [max consecutive aborts / wasted cycles / first "
                "commit]:\n");
    for (std::size_t c = 0; c < s.cm_max_consec_aborts.size(); ++c) {
      std::printf("  core %-2zu  %-6llu %-10llu %llu\n", c,
                  (unsigned long long)s.cm_max_consec_aborts[c],
                  (unsigned long long)s.cm_wasted_by_core[c],
                  (unsigned long long)s.cm_first_commit_cycle[c]);
    }
  }
  if (s.prov_enabled && !s.prov_site_names.empty()) {
    // Top offender sites by false conflicts (full forensics: run with
    // --trace-dir and feed the capture to `asfsim_trace conflicts`).
    std::vector<std::size_t> order(s.prov_site_names.size());
    std::vector<std::uint64_t> nfalse(order.size()), ntrue(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
      nfalse[i] = prov::site_false(prov::site_row(s.prov_site_table, i));
      ntrue[i] = prov::site_true(prov::site_row(s.prov_site_table, i));
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (nfalse[a] != nfalse[b]) return nfalse[a] > nfalse[b];
      if (ntrue[a] != ntrue[b]) return ntrue[a] > ntrue[b];
      return a < b;
    });
    std::printf("\n-- conflict provenance (top sites by false conflicts) --\n");
    std::size_t shown = 0;
    for (const std::size_t i : order) {
      const std::uint64_t* row = prov::site_row(s.prov_site_table, i);
      if (nfalse[i] + ntrue[i] + row[prov::kSiteAvoided] == 0) continue;
      std::printf("%-20s objects %-8llu false %-8llu true %-8llu "
                  "avoided %-8llu wasted %llu\n",
                  s.prov_site_names[i].c_str(),
                  (unsigned long long)row[prov::kSiteObjects],
                  (unsigned long long)nfalse[i], (unsigned long long)ntrue[i],
                  (unsigned long long)row[prov::kSiteAvoided],
                  (unsigned long long)row[prov::kSiteWasted]);
      if (++shown == 8) break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "counter";
  DetectorKind detector = DetectorKind::kBaseline;
  std::uint32_t nsub = 4;
  bool ats = false;
  std::vector<std::string> workloads;
  for (const auto& w : workload_registry()) workloads.push_back(w.name);
  const CliSpec spec{.groups = kCliAllGroups & ~kCliRunner, .flags = {
      choice_flag("--workload", workloads,
                  [&](std::size_t i) { workload = workloads[i]; }),
      choice_flag("--detector",
                  {"baseline", "subblock", "subblock-wawline",
                   "subblock-nodirty", "perfect", "war-only"},
                  [&](std::size_t i) {  // in DetectorKind order
                    detector = static_cast<DetectorKind>(i);
                  }),
      nsub_flag(nsub),
      switch_flag("--ats", ats),
      {"--list", "",
       [](CliArgs&) {
         for (const auto& w : workload_registry()) {
           std::printf("%-14s %s\n", w.name, w.make()->description());
         }
         std::exit(0);
       }},
  }, .check = nsub_check(detector, nsub)};
  const CliOptions common = parse_cli(argc, argv, spec);

  ExperimentConfig cfg = experiment_config(common).with(detector, nsub);
  cfg.sim.enable_ats = ats;

  // --trace-dir: one full-timeline trace, named like the runner's
  // (<workload>-<jobspec hash>.<ext>); read it with asfsim_trace.
  TraceOptions trace;
  if (!common.trace_dir.empty()) {
    trace.format = common.trace_format;
    trace.path = common.trace_dir + "/" + workload + "-" +
                 runner::make_job_spec(workload, cfg).hash_hex +
                 trace_file_extension(trace.format);
  }
  try {
    const ExperimentResult r = run_experiment(workload, cfg, trace);
    print_report(r, common.threads);
    if (trace.enabled()) std::printf("\ntrace      : %s\n", trace.path.c_str());
    return r.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    const std::string what = e.what();
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 what.substr(0, what.find('\n')).c_str());
    return 1;
  }
}
