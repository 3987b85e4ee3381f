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
//             runner to demonstrate JobError context propagation.
//
// See docs/robustness.md for the mutation catalog and triage guide.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

[[noreturn]] void usage(int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: asfsim_chaos <matrix|cell|livelock> [options]\n"
      "  matrix [--seeds a,b,c] [--ntx N] [--audit N] [--verbose]\n"
      "  cell --mutate NAME [--detector baseline|subblock] [--nsub N]\n"
      "       [--seed N] [--ntx N] [--audit N]\n"
      "       [--cm-policy requester-wins|polite|timestamp|serialize]\n"
      "       [--cm-max-retries N] [--cm-karma N] [--max-tx-retries N]\n"
      "  livelock [--runner | --serialize]\n"
      "    --serialize reruns the livelocked configuration under\n"
      "    --cm-policy serialize with the watchdog DISARMED and demands\n"
      "    the fallback escalation alone terminates it.\n"
      "mutations (--mutate):\n");
  for (const ProtocolMutation m : all_mutations()) {
    std::fprintf(out, "  %s\n", to_string(m));
  }
  std::exit(code);
}

// matrix and cell get argv with the subcommand word replaced by the program
// name (see main), so CliArgs diagnostics read
// "<prog>: bad value for --ntx: '-1'".

int cmd_matrix(int argc, char** argv) {
  KillMatrixOptions opt;
  for (CliArgs a(argc, argv); a.next();) {
    const std::string_view f = a.arg();
    if (f == "--seeds") {
      opt.seeds.clear();
      const std::string_view list = a.value();
      for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t end = std::min(list.find(',', pos), list.size());
        std::uint64_t seed = 0;
        const auto [ptr, ec] =
            std::from_chars(list.data() + pos, list.data() + end, seed);
        if (ec != std::errc{} || ptr != list.data() + end || end == pos) {
          a.fail("bad value for --seeds: '" + std::string(list) + "'");
        }
        opt.seeds.push_back(seed);
        pos = end + 1;
      }
    } else if (f == "--ntx") {
      opt.ntx = a.number<int>(1);
    } else if (f == "--audit") {
      opt.audit_interval = a.number<Cycle>();
    } else if (f == "--verbose") {
      opt.verbose = true;
    } else {
      usage(2);
    }
  }
  const KillMatrixReport report = run_kill_matrix(opt);
  std::printf("%s\n", report.summary().c_str());
  return report.all_green() ? 0 : 1;
}

int cmd_cell(int argc, char** argv) {
  ChaosCell cell;
  for (CliArgs a(argc, argv); a.next();) {
    const std::string_view f = a.arg();
    if (f == "--detector") {
      const std::string_view d = a.value();
      if (d == "baseline") {
        cell.detector = DetectorKind::kBaseline;
        cell.nsub = 1;
      } else if (d == "subblock") {
        cell.detector = DetectorKind::kSubBlock;
      } else {
        a.fail("unknown detector '" + std::string(d) + "'");
      }
    } else if (f == "--nsub") {
      cell.nsub = a.number<std::uint32_t>(1, 64);
    } else if (f == "--seed") {
      cell.seed = a.number<std::uint64_t>();
    } else if (f == "--ntx") {
      cell.ntx = a.number<int>(1);
    } else if (f == "--audit") {
      cell.audit_interval = a.number<Cycle>();
    } else if (f == "--max-tx-retries") {
      cell.max_tx_retries = a.number<std::int32_t>(-1);
    } else if (f == "--ncells") {
      // Ledger cell indices are 32-bit.
      cell.ncells = a.number<std::uint64_t>(
          1, std::numeric_limits<std::uint32_t>::max());
    } else if ((f == "--mutate" && parse_flag(a, cell.fault)) ||
               (f != "--cm-stats" && parse_flag(a, cell.cm))) {
      // Table-resolved: the mutation under test and the policy knobs.
    } else {
      usage(2);
    }
  }
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

int cmd_livelock(int argc, char** argv) {
  bool via_runner = false;
  bool serialize = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runner") == 0) {
      via_runner = true;
    } else if (std::strcmp(argv[i], "--serialize") == 0) {
      serialize = true;
    } else {
      usage(2);
    }
  }
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
  if (argc < 2) usage(2);
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    usage(0);
  }
  const std::string_view cmd = argv[1];
  argv[1] = argv[0];
  if (cmd == "matrix") return cmd_matrix(argc - 1, argv + 1);
  if (cmd == "cell") return cmd_cell(argc - 1, argv + 1);
  if (cmd == "livelock") return cmd_livelock(argc - 2, argv + 2);
  usage(2);
}
