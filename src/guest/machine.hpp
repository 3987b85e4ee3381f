// Machine: one fully-wired simulated system — the library's main entry point.
//
//   Machine m(SimConfig{}, DetectorKind::kSubBlock, /*nsub=*/4);
//   Addr counter = m.galloc().alloc(8);
//   for (CoreId c = 0; c < m.config().ncores; ++c)
//     m.spawn(c, worker(m.ctx(c), counter));
//   m.run();
//   // inspect m.stats()
#pragma once

#include <memory>
#include <vector>

#include "core/detector.hpp"
#include "fault/plan.hpp"
#include "guest/ctx.hpp"
#include "htm/asf_runtime.hpp"
#include "mem/backing_store.hpp"
#include "mem/coherence.hpp"
#include "mem/gallocator.hpp"
#include "prov/collector.hpp"
#include "prov/site_registry.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "stats/counters.hpp"
#include "trace/sink.hpp"

namespace asfsim {

class Machine {
 public:
  explicit Machine(const SimConfig& cfg = SimConfig{},
                   DetectorKind detector = DetectorKind::kBaseline,
                   std::uint32_t nsub = 4);

  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] Kernel& kernel() { return kernel_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] BackingStore& backing() { return backing_; }
  [[nodiscard]] MemorySystem& mem() { return mem_; }
  [[nodiscard]] AsfRuntime& runtime() { return runtime_; }
  [[nodiscard]] GAllocator& galloc() { return galloc_; }
  [[nodiscard]] const Detector& detector() const { return mem_.detector(); }
  [[nodiscard]] GuestCtx& ctx(CoreId core) { return *ctxs_[core]; }

  /// Bind a guest thread to a core (one thread per core).
  void spawn(CoreId core, Task<void> thread) {
    kernel_.spawn(core, std::move(thread));
  }

  /// Run to completion; records the final cycle into stats().total_cycles.
  Cycle run(Cycle max_cycles = ~Cycle{0});

  /// Attach a non-owning trace sink to the full event stream (JSONL,
  /// Perfetto, custom). The first attach arms the runtime/memory-system
  /// hub pointers; with no sinks attached tracing costs one null check.
  void add_trace_sink(trace::TraceSink* sink) {
    hub_.add_sink(sink);
    runtime_.set_trace_hub(&hub_);
    mem_.set_trace_hub(&hub_);
  }
  [[nodiscard]] trace::TraceHub& trace_hub() { return hub_; }

  /// The fault-injection plan, or null when no injection is configured
  /// (SimConfig::fault — tools read the counters after a run).
  [[nodiscard]] FaultPlan* fault_plan() { return fault_.get(); }

  /// Conflict-provenance site registry, or null unless SimConfig::provenance
  /// (docs/observability.md, "Conflict provenance").
  [[nodiscard]] const prov::SiteRegistry* site_registry() const {
    return prov_sites_.get();
  }

  // ---- setup-phase helpers (host-time, no simulated cycles) ---------------
  void poke(Addr a, std::uint32_t size, std::uint64_t v) {
    backing_.write(a, size, v);
  }
  [[nodiscard]] std::uint64_t peek(Addr a, std::uint32_t size) const {
    return backing_.read(a, size);
  }

 private:
  SimConfig cfg_;
  Stats stats_;
  trace::TraceHub hub_{&stats_};
  Kernel kernel_;
  BackingStore backing_;
  MemorySystem mem_;
  AsfRuntime runtime_;
  GAllocator galloc_;
  std::unique_ptr<prov::SiteRegistry> prov_sites_;
  std::unique_ptr<prov::ProvCollector> prov_;
  Addr fallback_lock_ = 0;
  std::unique_ptr<FaultPlan> fault_;
  std::vector<std::unique_ptr<GuestCtx>> ctxs_;
};

}  // namespace asfsim
