#include "harness/experiment.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "guest/machine.hpp"
#include "trace/jsonl.hpp"
#include "trace/perfetto_sink.hpp"

namespace asfsim {

ExperimentConfig experiment_config(const CliOptions& opts) {
  ExperimentConfig cfg;
  cfg.params.threads = opts.threads;
  cfg.params.seed = opts.seed;
  cfg.params.scale = opts.scale;
  cfg.params.oltp = opts.oltp;
  cfg.sim.ncores = opts.threads;
  cfg.sim.fault = opts.fault;
  cfg.sim.watchdog_cycles = opts.watchdog;
  cfg.sim.provenance = opts.prov;
  cfg.sim.cm = opts.cm;
  cfg.wall_limit_s = opts.job_timeout;
  return cfg;
}

const char* trace_file_extension(TraceFormat fmt) {
  switch (fmt) {
    case TraceFormat::kJsonl:
      return ".jsonl";
    case TraceFormat::kPerfetto:
      return ".perfetto.json";
    case TraceFormat::kNone:
      break;
  }
  return "";
}

ExperimentResult run_experiment(const std::string& workload,
                                const ExperimentConfig& cfg,
                                const TraceOptions& trace) {
  SimConfig sim = cfg.sim;
  sim.seed = cfg.params.seed;
  if (cfg.params.threads > sim.ncores) {
    throw std::invalid_argument("run_experiment: threads > ncores");
  }

  Machine m(sim, cfg.detector, cfg.nsub);
  m.stats().record_timeseries = cfg.timeseries;
  if (cfg.wall_limit_s > 0.0) m.kernel().set_wall_limit(cfg.wall_limit_s);

  std::ofstream os;
  std::unique_ptr<trace::TraceSink> sink;
  if (trace.enabled()) {
    const std::filesystem::path path(trace.path);
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    os.open(path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("run_experiment: cannot open trace file " +
                               trace.path);
    }
    if (trace.format == TraceFormat::kPerfetto) {
      sink = std::make_unique<trace::PerfettoSink>(os);
    } else {
      sink = std::make_unique<trace::JsonlSink>(os);
    }
    m.add_trace_sink(sink.get());
  }

  auto wl = make_workload(workload);
  wl->setup(m, cfg.params);
  m.run(cfg.max_cycles);

  ExperimentResult r;
  r.workload = workload;
  r.detector = m.detector().name();
  r.validation_error = wl->validate(m);
  r.stats = m.stats();
  if (const FaultPlan* plan = m.fault_plan()) {
    r.fault_counters = plan->counters();
    r.has_fault_counters = true;
  }
  return r;
}

}  // namespace asfsim
