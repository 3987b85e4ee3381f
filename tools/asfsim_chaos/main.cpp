// asfsim_chaos: robustness driver for the fault-injection subsystem.
//
// Subcommands:
//   matrix    run the mutation-kill matrix (clean controls + every
//             --mutate variant until an oracle kills it). Exit 0 iff all
//             mutations are killed AND every clean control stays green —
//             this is what the chaos CI job gates on.
//   cell      run one chaos cell (detector × seed × fault × mutation) and
//             print its verdict. Exit 0 iff the verdict is clean.
//   livelock  run a deliberately livelocked configuration (counter
//             workload, 256 B direct-mapped L1, fallback disabled) and
//             demand the kernel watchdog terminates it with a diagnostic
//             dump. --runner routes the same job through the parallel
//             runner to demonstrate JobError context propagation;
//             --serialize reruns it under --cm-policy serialize with the
//             watchdog DISARMED and demands the fallback escalation alone
//             terminates it.
//
// `asfsim_chaos --help` lists every command's flags. See docs/robustness.md
// for the mutation catalog and triage guide.
#include <charconv>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fault/chaos.hpp"
#include "harness/experiment.hpp"
#include "runner/runner.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace asfsim;

/// --seeds a,b,c: a comma-separated list of seeds.
CliFlag seeds_flag(std::vector<std::uint64_t>& seeds) {
  return {"--seeds", "n,n,...", [&seeds](CliArgs& a) {
            seeds.clear();
            const std::string_view list = a.value();
            const char* const end = list.data() + list.size();
            for (const char* p = list.data();; ++p) {
              std::uint64_t seed = 0;
              const auto [next, ec] = std::from_chars(p, end, seed);
              if (ec != std::errc{} || (next != end && *next != ',')) {
                a.bad_value();
              }
              seeds.push_back(seed);
              if (next == end) break;
              p = next;
            }
          }};
}

int cmd_matrix(const KillMatrixOptions& opt) {
  const KillMatrixReport report = run_kill_matrix(opt);
  std::printf("%s\n", report.summary().c_str());
  return report.all_green() ? 0 : 1;
}

int cmd_cell(const ChaosCell& cell) {
  const ChaosCellResult r = run_chaos_cell(cell);
  std::printf("verdict: %s\n", to_string(r.verdict));
  if (!r.detail.empty()) std::printf("detail: %s\n", r.detail.c_str());
  std::printf("commits: %llu\n", static_cast<unsigned long long>(r.commits));
  std::printf("max consecutive aborts: %u\n", r.max_streak);
  return r.verdict == ChaosVerdict::kClean ? 0 : 1;
}

/// A config that cannot make forward progress: the counter workload's
/// per-thread state plus the hot counter line overflow a 256-byte
/// direct-mapped L1, every transaction capacity-aborts, and with the
/// fallback path disabled (max_tx_retries = 0) the retry loop spins
/// forever. Only the watchdog ends it.
ExperimentConfig livelocked_config() {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.nsub = 4;
  cfg.sim.l1.size_bytes = 256;
  cfg.sim.l1.ways = 1;
  cfg.sim.max_tx_retries = 0;  // never fall back to the lock
  cfg.sim.backoff_cap_shift = 2;
  cfg.sim.watchdog_cycles = 200'000;
  cfg.params.threads = 4;
  cfg.params.seed = 7;
  return cfg;
}

int cmd_livelock(bool via_runner, bool serialize) {
  ExperimentConfig cfg = livelocked_config();
  if (serialize) {
    // The guaranteed-termination demo (docs/contention.md §3): same
    // livelocked configuration, but the serialize policy re-enables the
    // fallback escalation. The watchdog stays DISARMED — termination must
    // come from the policy's progress guarantee, not a timeout.
    cfg.sim.cm.policy = CmPolicyKind::kSerialize;
    cfg.sim.cm.max_retries = 8;
    cfg.sim.watchdog_cycles = 0;
    const ExperimentResult r = run_experiment("counter", cfg);
    std::printf(
        "serialize fallback guaranteed termination with the watchdog "
        "disarmed:\n  commits %llu  aborts %llu  fallback runs %llu  "
        "cycles %llu\n",
        static_cast<unsigned long long>(r.stats.tx_commits),
        static_cast<unsigned long long>(r.stats.tx_aborts),
        static_cast<unsigned long long>(r.stats.fallback_runs),
        static_cast<unsigned long long>(r.stats.total_cycles));
    if (r.stats.fallback_runs == 0) {
      std::fprintf(stderr,
                   "livelock --serialize: the run finished without the "
                   "fallback ever engaging — the configuration is no longer "
                   "livelocked\n");
      return 1;
    }
    return 0;
  }
  try {
    if (via_runner) {
      runner::RunnerOptions ro;
      ro.use_cache = false;
      ro.jobs = 2;
      ro.manifest_path = "-";
      runner::Runner r(ro);
      (void)r.get("counter", cfg);
    } else {
      (void)run_experiment("counter", cfg);
    }
  } catch (const runner::JobError& e) {
    std::printf("runner surfaced the livelock with job context:\n%s\n",
                e.what());
    return 0;
  } catch (const LivelockError& e) {
    std::printf("watchdog fired as designed:\n%s\n", e.what());
    return 0;
  }
  std::fprintf(stderr,
               "livelock demo completed without tripping the watchdog — "
               "the configuration is no longer livelocked\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  KillMatrixOptions matrix;
  ChaosCell cell;
  bool via_runner = false;
  bool serialize = false;
  CliSpec cell_spec{.flags = {
      choice_flag("--detector", {"baseline", "subblock"},
                  [&cell](std::size_t i) {  // in DetectorKind order
                    cell.detector = static_cast<DetectorKind>(i);
                  }),
      nsub_flag(cell.nsub),
      number_flag("--seed", cell.seed),
      number_flag("--ntx", cell.ntx, 1),
      number_flag("--audit", cell.audit_interval),
      number_flag("--max-tx-retries", cell.max_tx_retries, -1),
      // Ledger cell indices are 32-bit.
      number_flag<std::uint64_t>("--ncells", cell.ncells, 1,
                                 std::numeric_limits<std::uint32_t>::max()),
  }, .check = nsub_check(cell.detector, cell.nsub)};
  // From the tables: the mutation under test and the policy knobs.
  for (CliFlag& f : table_flags(cell.fault)) {
    if (f.flag == "--mutate") cell_spec.flags.push_back(std::move(f));
  }
  for (CliFlag& f : table_flags(cell.cm)) {
    if (f.flag != "--cm-stats") cell_spec.flags.push_back(std::move(f));
  }
  const std::vector<CliCommand> cmds = {
      {"matrix",
       {.flags = {seeds_flag(matrix.seeds), number_flag("--ntx", matrix.ntx, 1),
                  number_flag("--audit", matrix.audit_interval),
                  switch_flag("--verbose", matrix.verbose)}},
       [&] { return cmd_matrix(matrix); }},
      {"cell", std::move(cell_spec), [&] { return cmd_cell(cell); }},
      {"livelock",
       {.flags = {switch_flag("--runner", via_runner),
                  switch_flag("--serialize", serialize)}},
       [&] { return cmd_livelock(via_runner, serialize); }},
  };
  try {
    return run_cli_command(argc, argv, cmds);
  } catch (const std::exception& e) {
    const std::string what = e.what();
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 what.substr(0, what.find('\n')).c_str());
    return 1;
  }
}
