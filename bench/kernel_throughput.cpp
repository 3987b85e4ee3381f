// BENCH_kernel measurement tool (docs/performance.md).
//
// Runs a pinned set of (workload × detector) cells and reports simulated
// cycles per host-second for each — the kernel's end-to-end figure of merit.
// Configs are fixed (no CLI scale knob) so numbers are comparable across
// commits; scripts/bench_kernel.sh wraps the output with git SHA and build
// flags to form BENCH_kernel.json, and scripts/check_bench_ratchet.py turns
// the committed file into a CI perf ratchet.
//
// Usage: kernel_throughput [--repeat N] [--quick]
//   --repeat N   host-timing repetitions per cell, best-of-N (default 3)
//   --quick      CI shape: at most 2 repetitions and smaller inputs; still
//                the same cells, so ratios remain meaningful on shared runners
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "harness/args.hpp"
#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

struct BenchCell {
  const char* name;      // row name in BENCH_kernel.json
  const char* workload;  // registry name
  DetectorKind detector;
  std::uint32_t nsub;
  double scale;        // input-size multiplier (full mode)
  double quick_scale;  // input-size multiplier (--quick / CI mode)
};

// One STAMP-port row and one OLTP row carry the headline ≥2× acceptance
// criterion; the rest spread coverage over the distinct hot paths (baseline
// line-granularity probes, sub-block walks, perfect-detector bookkeeping,
// high-abort contention).
constexpr BenchCell kCells[] = {
    {"vacation/subblock-4", "vacation", DetectorKind::kSubBlock, 4, 16.0, 2.0},
    {"vacation/baseline", "vacation", DetectorKind::kBaseline, 1, 16.0, 2.0},
    {"genome/subblock-4", "genome", DetectorKind::kSubBlock, 4, 24.0, 3.0},
    {"intruder/subblock-8", "intruder", DetectorKind::kSubBlock, 8, 24.0, 3.0},
    {"kmeans/baseline", "kmeans", DetectorKind::kBaseline, 1, 16.0, 2.0},
    {"ssca2/perfect", "ssca2", DetectorKind::kPerfect, 1, 24.0, 3.0},
    {"oltp-contended/subblock-4", "oltp", DetectorKind::kSubBlock, 4, 1.0,
     1.0},
    {"oltp-contended/baseline", "oltp", DetectorKind::kBaseline, 1, 1.0, 1.0},
};

ExperimentConfig cell_config(const BenchCell& c, bool quick) {
  ExperimentConfig cfg;
  cfg.detector = c.detector;
  cfg.nsub = c.nsub;
  cfg.params.threads = 8;
  cfg.sim.ncores = 8;
  cfg.params.seed = 42;
  cfg.params.scale = quick ? c.quick_scale : c.scale;
  if (std::string_view(c.workload) == "oltp") {
    // Contended-KV: small hot table + zipf theta 1.1 + update-heavy mix A,
    // the shape ROADMAP's OLTP bench row calls for.
    cfg.params.oltp.records = 512;
    cfg.params.oltp.payload_bytes = 16;
    cfg.params.oltp.tx_len = 8;
    cfg.params.oltp.tx_per_thread = quick ? 1000 : 8000;
    cfg.params.oltp.theta = 1.1;
    cfg.params.oltp.mix = OltpMix::kA;
  }
  return cfg;
}

int run(int argc, char** argv) {
  int repeat = 3;
  bool quick = false;
  const CliSpec spec{.flags = {number_flag("--repeat", repeat, 1),
                               switch_flag("--quick", quick)}};
  (void)parse_cli(argc, argv, spec);
  if (quick) repeat = std::min(repeat, 2);

  std::printf("[\n");
  bool first = true;
  for (const BenchCell& c : kCells) {
    const ExperimentConfig cfg = cell_config(c, quick);
    double best_s = 1e300;
    std::uint64_t sim_cycles = 0;
    std::uint64_t commits = 0;
    for (int r = 0; r < repeat; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const ExperimentResult res = run_experiment(c.workload, cfg);
      const auto t1 = std::chrono::steady_clock::now();
      if (!res.ok()) {
        std::fprintf(stderr, "%s: validation failed: %s\n", c.name,
                     res.validation_error.c_str());
        return 1;
      }
      const double s = std::chrono::duration<double>(t1 - t0).count();
      best_s = std::min(best_s, s);
      sim_cycles = static_cast<std::uint64_t>(res.stats.total_cycles);
      commits = res.stats.tx_commits;
    }
    const double cps = static_cast<double>(sim_cycles) / best_s;
    std::printf("%s  {\"name\": \"%s\", \"workload\": \"%s\", "
                "\"detector\": \"%s\", \"nsub\": %u, \"scale\": %g, "
                "\"sim_cycles\": %llu, \"tx_commits\": %llu, "
                "\"host_seconds\": %.6f, \"sim_cycles_per_host_sec\": %.0f}",
                first ? "" : ",\n", c.name, c.workload,
                to_string(c.detector), c.nsub, cfg.params.scale,
                static_cast<unsigned long long>(sim_cycles),
                static_cast<unsigned long long>(commits), best_s, cps);
    first = false;
    std::fprintf(stderr, "%-28s %12.3e sim-cycles/host-s  (%.3fs host)\n",
                 c.name, cps, best_s);
  }
  std::printf("\n]\n");
  return 0;
}

}  // namespace
}  // namespace asfsim

int main(int argc, char** argv) { return asfsim::run(argc, argv); }
