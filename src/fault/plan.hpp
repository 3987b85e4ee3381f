// FaultPlan: the seed-deterministic fault-injection engine.
//
// One FaultPlan per Machine, created only when FaultConfig::any_injection()
// is true — a clean run carries a null pointer and pays one null check per
// hook site (the same discipline as src/trace/). Every decision comes from
// per-core PRNG streams derived from the simulation seed, so injections are
// byte-deterministic per (seed, config) regardless of host conditions,
// --jobs value, or run order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_config.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// Observability counters (not part of Stats: the stats blob format stays
/// byte-identical to fault-free builds).
struct FaultCounters {
  std::uint64_t spurious_aborts = 0;
  std::uint64_t commit_aborts = 0;
  std::uint64_t forced_evictions = 0;
  std::uint64_t probe_jitter_events = 0;
  Cycle probe_jitter_cycles = 0;
  std::uint64_t sched_jitter_events = 0;
  Cycle sched_jitter_cycles = 0;
};

/// Manifest / report order (runner/runner.cpp, stats/report.cpp).
template <>
struct FieldTable<FaultCounters> {
  static constexpr auto fields = std::tuple{
      field(&FaultCounters::spurious_aborts, {"spurious_aborts"}),
      field(&FaultCounters::commit_aborts, {"commit_aborts"}),
      field(&FaultCounters::forced_evictions, {"forced_evictions"}),
      field(&FaultCounters::probe_jitter_events, {"probe_jitter_events"}),
      field(&FaultCounters::probe_jitter_cycles, {"probe_jitter_cycles"}),
      field(&FaultCounters::sched_jitter_events, {"sched_jitter_events"}),
      field(&FaultCounters::sched_jitter_cycles, {"sched_jitter_cycles"}),
  };
};
static_assert(table_complete<FaultCounters>(),
              "every FaultCounters member needs an entry");

class FaultPlan {
 public:
  FaultPlan(const FaultConfig& cfg, std::uint64_t seed, std::uint32_t ncores);

  /// Should this transactional access spuriously abort its transaction?
  [[nodiscard]] bool spurious_abort(CoreId core);
  /// Should this commit attempt fail?
  [[nodiscard]] bool commit_abort(CoreId core);
  /// Should this transactional access trigger a capacity-pressure eviction?
  [[nodiscard]] bool forced_eviction(CoreId core);
  /// Extra cycles for a probe broadcast issued by `core`.
  [[nodiscard]] Cycle probe_jitter(CoreId core);
  /// Extra cycles for a resume scheduled on behalf of `core`.
  [[nodiscard]] Cycle sched_jitter(CoreId core);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  /// One-line human summary of what was injected (diagnostics, tools).
  [[nodiscard]] std::string summary() const;

 private:
  FaultConfig cfg_;
  std::vector<Rng> rng_;  // one independent deterministic stream per core
  FaultCounters counters_;
};

}  // namespace asfsim
