// Experiment runner: one (workload × detector × configuration) simulation.
#pragma once

#include <string>

#include "core/detector.hpp"
#include "fault/plan.hpp"
#include "harness/args.hpp"
#include "sim/config.hpp"
#include "stats/counters.hpp"
#include "workloads/workload.hpp"

namespace asfsim {

struct ExperimentConfig {
  DetectorKind detector = DetectorKind::kBaseline;
  std::uint32_t nsub = 4;  // sub-blocks per line (sub-blocking detectors)
  SimConfig sim;
  WorkloadParams params;
  bool timeseries = false;  // record Fig-3 style time series
  Cycle max_cycles = Cycle{1} << 36;  // livelock guard
  /// Host wall-clock budget for the run, in seconds (0 = unlimited).
  /// Deliberately NOT part of the JobSpec cache key: it never changes the
  /// simulation result, only whether the host gives up on it.
  double wall_limit_s = 0.0;

  /// Convenience: same experiment with a different detector.
  [[nodiscard]] ExperimentConfig with(DetectorKind d,
                                      std::uint32_t n = 4) const {
    ExperimentConfig c = *this;
    c.detector = d;
    c.nsub = n;
    return c;
  }
};

template <>
struct FieldTable<ExperimentConfig> {
  static constexpr auto fields = std::tuple{
      field(&ExperimentConfig::detector, {"detector"}),
      field(&ExperimentConfig::nsub, {"nsub"}),
      field(&ExperimentConfig::sim, {"sim"}),
      field(&ExperimentConfig::params, {"params"}),
      field(&ExperimentConfig::timeseries, {"timeseries"}),
      field(&ExperimentConfig::max_cycles, {"max_cycles"}),
      field(&ExperimentConfig::wall_limit_s,
            {.key = "wall_limit_s", .role = FieldRole::kHostOnly}),
  };
};
static_assert(table_complete<ExperimentConfig>(),
              "every ExperimentConfig member needs an entry");

/// File extension matching the format (".jsonl" / ".perfetto.json").
[[nodiscard]] const char* trace_file_extension(TraceFormat fmt);

struct TraceOptions {
  TraceFormat format = TraceFormat::kNone;
  std::string path;  // output file; parent directories are created

  [[nodiscard]] bool enabled() const {
    return format != TraceFormat::kNone && !path.empty();
  }
};

struct ExperimentResult {
  std::string workload;
  std::string detector;
  Stats stats;
  std::string validation_error;  // empty string = outputs validated OK
  /// What the fault plan actually injected during an *executed* run with
  /// injection enabled. Deliberately outside Stats (the stats blob format
  /// stays byte-identical to fault-free builds), so cache loads come back
  /// with has_fault_counters == false.
  FaultCounters fault_counters;
  bool has_fault_counters = false;

  [[nodiscard]] bool ok() const { return validation_error.empty(); }
};

/// The config the common flags describe (baseline detector): size, seed,
/// threads (one core each), the OLTP, fault, watchdog, provenance and
/// contention knobs, which all land in the JobSpec hash, and --job-timeout
/// as the host-side wall_limit_s.
[[nodiscard]] ExperimentConfig experiment_config(const CliOptions& opts);

/// Run one experiment to completion. Throws on simulator-level failures
/// (deadlock, cycle-limit); workload validation failures are reported in the
/// result instead. With `trace` enabled, the full event timeline streams to
/// `trace.path` while running; tracing never perturbs simulated timing
/// (stats and cycle counts are byte-identical with and without it). Throws
/// if the trace file cannot be opened.
[[nodiscard]] ExperimentResult run_experiment(const std::string& workload,
                                              const ExperimentConfig& cfg,
                                              const TraceOptions& trace = {});

}  // namespace asfsim
