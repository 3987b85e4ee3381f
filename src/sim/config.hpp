// Simulation configuration (paper Table II, "Simulation configuration").
//
// The paper models 8 AMD Opteron 2.2GHz out-of-order cores on PTLsim-ASF.
// We keep the memory-hierarchy geometry and load-to-use latencies and model
// the core with an in-order timing approximation (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <string>

#include "cm/cm_config.hpp"
#include "fault/fault_config.hpp"
#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// Geometry and latency of one cache level. Latencies are load-to-use.
struct CacheLevelConfig {
  std::uint32_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 1;
  Cycle latency = 1;

  [[nodiscard]] std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * ways);
  }
};

/// Full machine configuration. Defaults reproduce paper Table II.
struct SimConfig {
  std::uint32_t ncores = 8;

  // L1 D-cache: 64KB, 64B lines, 2-way, 3-cycle load-to-use.
  CacheLevelConfig l1{64 * 1024, 64, 2, 3};
  // Private L2: 512KB, 16-way, 15-cycle load-to-use.
  CacheLevelConfig l2{512 * 1024, 64, 16, 15};
  // Private L3: 2MB, 16-way, 50-cycle load-to-use.
  CacheLevelConfig l3{2 * 1024 * 1024, 64, 16, 50};
  // Main memory load-to-use latency.
  Cycle mem_latency = 210;
  // Remote-L1 cache-to-cache transfer latency (HyperTransport-ish).
  Cycle cache2cache_latency = 60;
  // Ownership-upgrade (S/O -> M) invalidation round trip.
  Cycle upgrade_latency = 20;

  // Snoop-bus occupancy: each probe broadcast holds the bus for this many
  // cycles; later probes queue behind it (0 disables contention modeling).
  Cycle bus_occupancy = 4;
  // Delayed-probe mode (0 = atomic-at-issue, the default): an access that
  // needs a broadcast stalls this many cycles BEFORE the probe executes, so
  // conflict checks see the machine state at delivery time rather than at
  // issue time. Used by asfsim_fig ablation_timing to validate the
  // atomic-at-issue substitution (DESIGN.md §2).
  Cycle probe_delay = 0;

  // Transaction bookkeeping costs.
  Cycle commit_latency = 5;   // gang-clear of speculative bits
  Cycle abort_latency = 50;   // discard + pipeline restart

  // Software backoff manager (paper §V-A: exponential backoff library).
  Cycle backoff_base = 32;
  std::uint32_t backoff_cap_shift = 8;  // max backoff = base << cap

  // Software fallback thresholds (GuestCtx::run_tx): take the serializing
  // lock after this many retries or capacity aborts of one logical
  // transaction. max_tx_retries = 0 disables the fallback entirely —
  // progress then rests on backoff alone (requester-wins has no guarantee;
  // pair with watchdog_cycles when experimenting, docs/robustness.md).
  std::uint32_t max_tx_retries = 24;
  std::uint32_t max_capacity_aborts = 3;

  // Livelock watchdog: abort the run (LivelockError + diagnostic dump) when
  // no transaction commits for this many cycles. 0 disables (default: long
  // non-transactional phases are legitimate).
  Cycle watchdog_cycles = 0;

  // Fault injection + protocol mutation (docs/robustness.md). All-zero by
  // default: a clean run never constructs a FaultPlan and its stats are
  // byte-identical to builds without the fault subsystem.
  FaultConfig fault;

  // Optional adaptive transaction scheduling (ATS) extension: serialize
  // transactions from cores whose abort EMA exceeds the threshold.
  bool enable_ats = false;
  double ats_alpha = 0.3;
  double ats_threshold = 0.5;

  // Contention management (docs/contention.md): which policy resolves true
  // conflicts (requester-wins by default — bit-identical to the pre-cm
  // tree), the bounded-retry-then-serialize threshold, the karma weight,
  // and the opt-in starvation accounting (stats-blob v5 section). All
  // fields are folded into the jobspec hash.
  CmConfig cm;

  // Conflict provenance (docs/observability.md): tag guest allocations with
  // site labels and attribute every conflict back to (site, object, line,
  // sub-block). Off by default; the disabled cost is one null check on the
  // conflict path. Does not change simulated outcomes, but it is folded into
  // the jobspec hash because it adds the opt-in stats-blob v4 section.
  bool provenance = false;

  std::uint64_t seed = 1;

  /// Sanity-check the configuration. Returns an empty string when valid,
  /// else a description of the first problem. Machine rejects invalid
  /// configs at construction (std::invalid_argument); the sub-block count
  /// is the Detector's to check.
  [[nodiscard]] std::string validate() const;
};

template <>
struct FieldTable<CacheLevelConfig> {
  static constexpr auto fields = std::tuple{
      field(&CacheLevelConfig::size_bytes, {"size_bytes"}),
      field(&CacheLevelConfig::line_bytes, {"line_bytes"}),
      field(&CacheLevelConfig::ways, {"ways"}),
      field(&CacheLevelConfig::latency, {"latency"}),
  };
};
static_assert(table_complete<CacheLevelConfig>(),
              "every CacheLevelConfig member needs an entry");

template <>
struct FieldTable<SimConfig> {
  static constexpr auto fields = std::tuple{
      field(&SimConfig::ncores, {"ncores"}),
      field(&SimConfig::l1, {"l1"}),
      field(&SimConfig::l2, {"l2"}),
      field(&SimConfig::l3, {"l3"}),
      field(&SimConfig::mem_latency, {"mem_latency"}),
      field(&SimConfig::cache2cache_latency, {"cache2cache_latency"}),
      field(&SimConfig::upgrade_latency, {"upgrade_latency"}),
      field(&SimConfig::bus_occupancy, {"bus_occupancy"}),
      field(&SimConfig::probe_delay, {"probe_delay"}),
      field(&SimConfig::commit_latency, {"commit_latency"}),
      field(&SimConfig::abort_latency, {"abort_latency"}),
      field(&SimConfig::backoff_base, {"backoff_base"}),
      field(&SimConfig::backoff_cap_shift, {"backoff_cap_shift"}),
      field(&SimConfig::max_tx_retries, {"max_tx_retries"}),
      field(&SimConfig::max_capacity_aborts, {"max_capacity_aborts"}),
      field(&SimConfig::watchdog_cycles, {"watchdog_cycles"}),
      field(&SimConfig::fault, {"fault"}),
      field(&SimConfig::enable_ats, {"enable_ats"}),
      field(&SimConfig::ats_alpha, {"ats_alpha"}),
      field(&SimConfig::ats_threshold, {"ats_threshold"}),
      field(&SimConfig::cm, {"cm"}),
      field(&SimConfig::provenance, {"provenance"}),
      // run_experiment overwrites it with WorkloadParams::seed, so in an
      // ExperimentConfig it never reaches the simulation on its own.
      field(&SimConfig::seed, {.key = "seed", .role = FieldRole::kHostOnly}),
  };
};
static_assert(table_complete<SimConfig>(),
              "every SimConfig member needs an entry");

}  // namespace asfsim
