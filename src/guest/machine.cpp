#include "guest/machine.hpp"

#include <stdexcept>

#include "fault/watchdog.hpp"
#include "trace/clock.hpp"

namespace asfsim {

namespace {
Cycle kernel_clock_thunk(const void* kernel) {
  return static_cast<const Kernel*>(kernel)->now();
}

/// `cfg`, once validate() accepts it; runs before the memory system is
/// built, so a bad geometry is reported as a config error.
const SimConfig& validated(const SimConfig& cfg) {
  if (std::string err = cfg.validate(); !err.empty()) {
    throw std::invalid_argument("SimConfig: " + err);
  }
  return cfg;
}
}  // namespace

Machine::Machine(const SimConfig& cfg, DetectorKind detector,
                 std::uint32_t nsub)
    : cfg_(cfg),
      kernel_(cfg_.ncores),
      mem_(kernel_, validated(cfg_), stats_, Detector(detector, nsub)),
      runtime_(kernel_, mem_, backing_, stats_, cfg_) {
  mem_.set_tx_control(&runtime_);
  if (cfg_.fault.any_injection()) {
    fault_ = std::make_unique<FaultPlan>(cfg_.fault, cfg_.seed, cfg_.ncores);
    kernel_.set_fault_plan(fault_.get());
    mem_.set_fault_plan(fault_.get());
    runtime_.set_fault_plan(fault_.get());
  }
  if (cfg_.watchdog_cycles != 0) {
    kernel_.set_watchdog(cfg_.watchdog_cycles,
                         [this] { return livelock_report(*this); });
  }
  if (cfg_.provenance) {
    prov_sites_ = std::make_unique<prov::SiteRegistry>();
    prov_ = std::make_unique<prov::ProvCollector>(*prov_sites_,
                                                 mem_.detector().nsub());
    galloc_.set_site_registry(prov_sites_.get());
    runtime_.set_provenance(prov_.get());
    mem_.set_provenance(prov_.get());
  }
  // The software-fallback lock word gets a cache line of its own. It needs
  // no store: guest memory that was never written reads 0 (unlocked).
  fallback_lock_ = galloc_.alloc(kLineBytes, kLineBytes,
                                 galloc_.register_site("fallback.lock",
                                                       kLineBytes));
  ctxs_.reserve(cfg_.ncores);
  for (CoreId c = 0; c < cfg_.ncores; ++c) {
    ctxs_.push_back(std::make_unique<GuestCtx>(
        kernel_, mem_, runtime_, galloc_, cfg_, c, fallback_lock_));
  }
}

Cycle Machine::run(Cycle max_cycles) {
  // Publish the simulated clock for this thread so host-side logging
  // (ASFSIM_INFO/ASFSIM_TRACE) can stamp lines with the current cycle.
  const trace::ScopedSimClock clock(&kernel_clock_thunk, &kernel_);
  const Cycle end = kernel_.run(max_cycles);
  stats_.total_cycles = end;
  if (prov_) {
    // Declare every allocation site at the end of the stream (ids are only
    // referenced by earlier conflict events, and final object counts are
    // known here), then fold the aggregates into the stats blob.
    const std::vector<prov::SiteInfo>& sites = prov_sites_->sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kSite;
      ev.cycle = end;
      ev.site_id = static_cast<std::uint32_t>(i);
      ev.site_name = sites[i].name;
      ev.site_obj_size = sites[i].obj_size;
      ev.site_objects = sites[i].objects;
      ev.site_bytes = sites[i].bytes;
      hub_.emit(ev);
    }
    prov_->flush(stats_);
  }
  if (cfg_.cm.stats) {
    // Fold the per-core starvation/fairness accounting into the stats blob
    // (opt-in: the v5 section only exists when --cm-stats asked for it).
    runtime_.flush_cm_stats();
  }
  hub_.finish(end);
  return end;
}

}  // namespace asfsim
