// Tiny CLI parsing shared by the figure driver, asfsim_explore and examples.
//
// Common flags:
//   --scale <f>    input-size multiplier (default 1.0)
//   --threads <n>  guest threads (default 8, the paper's core count)
//   --seed <n>     deterministic seed (default 1)
//   --csv <dir>    also write CSV series into <dir>
//   --jobs <n>     host worker threads for the experiment runner
//                  (default 0 = hardware concurrency; results are
//                  byte-identical for any value — see docs/runner.md)
//   --no-cache     bypass the on-disk result cache (build/.asfsim-cache/)
//   --trace-dir <dir>     write one full-timeline trace file per job
//   --trace-format <fmt>  jsonl (default) or perfetto
//                         (see docs/observability.md)
//
// Robustness flags (docs/robustness.md):
//   --fault-spurious <p>      per-tx-access spurious-abort probability
//   --fault-commit <p>        per-commit injected-abort probability
//   --fault-evict <p>         per-tx-access forced speculative eviction prob.
//   --fault-probe-jitter <n>  max extra cycles per probe broadcast
//   --fault-sched-jitter <n>  max extra cycles per scheduled resume
//   --mutate <name>           protocol mutation (chaos harness)
//   --watchdog <n>            livelock watchdog threshold in cycles (0 = off)
//   --job-timeout <s>         per-job wall-clock limit in seconds (0 = off)
//
// OLTP workload knobs (docs/workloads.md, "The OLTP/KV family"):
//   --oltp-records <n>     table size in records
//   --oltp-payload <n>     payload bytes per record (multiple of 8)
//   --oltp-tx-len <n>      operations per transaction
//   --oltp-tx <n>          transactions per guest thread (scaled by --scale)
//   --oltp-theta <f>       zipf skew (0 = uniform; YCSB default 0.99)
//   --oltp-read-ratio <f>  free-form mix: reads
//   --oltp-rmw-ratio <f>   free-form mix: read-modify-writes
//   --oltp-scan-ratio <f>  free-form mix: scans (rest = blind updates)
//   --oltp-scan-len <n>    records per scan operation
//   --oltp-hot-window <n>  YCSB-D "latest" sliding hot window (0 = whole
//                          table; see docs/workloads.md)
//   --oltp-mix <a..f>      YCSB preset (overrides the three ratios)
//
// Contention management (docs/contention.md):
//   --cm-policy <name>     conflict-resolution policy: requester-wins
//                          (default, the ASF hardware rule), polite
//                          (requester-loses), timestamp (oldest-wins with
//                          karma carry-over), serialize (bounded retries,
//                          then the fallback lock guarantees progress)
//   --cm-max-retries <n>   serialize policy: aborts before the transaction
//                          escalates to the fallback lock (default 8)
//   --cm-karma <n>         timestamp policy: cycles of priority credit per
//                          prior abort (default 64)
//   --cm-stats             record per-core starvation/fairness accounting
//                          (adds the stats v5 section)
//
// Observability (docs/observability.md):
//   --prov                 conflict provenance: attribute every conflict to
//                          its allocation site (adds the stats v4 section
//                          and provenance-tagged trace events)
//
// Every numeric value must parse completely and lie in the flag's range;
// anything else ends in "<prog>: bad value for <flag>: '<text>'" and exit 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include "cm/cm_config.hpp"
#include "oltp/oltp_config.hpp"

namespace asfsim {

struct CliOptions {
  double scale = 1.0;
  std::uint32_t threads = 8;
  std::uint64_t seed = 1;
  std::string csv_dir;
  std::uint32_t jobs = 0;  // runner workers; 0 = hardware concurrency
  bool no_cache = false;   // skip the content-addressed result cache
  std::string trace_dir;   // empty = tracing disabled
  std::string trace_format = "jsonl";  // "jsonl" | "perfetto"

  // Robustness knobs (apply_robustness_options folds them into the
  // ExperimentConfig; all defaults preserve the clean-run byte output).
  double fault_spurious = 0.0;
  double fault_commit = 0.0;
  double fault_evict = 0.0;
  std::uint64_t fault_probe_jitter = 0;
  std::uint64_t fault_sched_jitter = 0;
  std::string mutate;        // validated by parse_cli (parse_mutation)
  std::uint64_t watchdog = 0;
  double job_timeout = 0.0;  // seconds; env ASFSIM_JOB_TIMEOUT also works

  /// OLTP workload knobs; flow into WorkloadParams::oltp (and therefore the
  /// JobSpec hash) via base_config/apply_robustness_options.
  OltpConfig oltp;

  /// Conflict provenance (--prov): flows into SimConfig::provenance.
  bool prov = false;

  /// Contention management (--cm-*): flows into SimConfig::cm.
  CmConfig cm;
};

/// Cursor over argv, shared by parse_cli and a tool's own flag hook.
class CliArgs {
 public:
  CliArgs(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advance to the next argument; false past the end.
  bool next() { return ++i_ < argc_; }
  [[nodiscard]] std::string_view arg() const { return argv_[i_]; }

  /// The current flag's value (the next argument); exits 2 when missing.
  const char* value();

  /// value() parsed as a T in [lo, hi]; exits 2 on anything else
  /// (trailing junk, a sign on an unsigned flag, overflow, NaN, inf).
  template <typename T>
  T number(T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max()) {
    const char* flag = argv_[i_];
    const char* text = value();
    const char* end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
      fail(std::string("bad value for ") + flag + ": '" + text + "'");
    }
    return v;
  }

  /// Print "<prog>: <msg>" on stderr and exit 2.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
};

/// What a binary accepts beyond the common flags.
struct CliExtras {
  /// Called on each argument parse_cli does not know; returns true when it
  /// consumed the argument (and its value, via CliArgs::value/number).
  std::function<bool(CliArgs&)> flag;
  /// Synopsis of the hook's arguments, printed by --help after the program.
  std::string usage;
  /// Accept --csv/--jobs/--no-cache. Tools that run one experiment
  /// in-process (no runner, no CSV) reject them instead of ignoring them.
  bool runner_flags = true;
};

/// Parse the common flags; exits with a one-line diagnostic on errors.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   const CliExtras& extras = {});

}  // namespace asfsim
