#include "harness/figures.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <tuple>
#include <vector>

#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "prov/collector.hpp"
#include "runner/runner.hpp"
#include "stats/report.hpp"
#include "stats/serialize.hpp"
#include "workloads/workload.hpp"

namespace asfsim::figures {

namespace {

using runner::Runner;

/// The CLI's config on `n` cores, one thread each.
ExperimentConfig on_cores(const CliOptions& opts, std::uint32_t n) {
  ExperimentConfig cfg = experiment_config(opts);
  cfg.params.threads = n;
  cfg.sim.ncores = n;
  return cfg;
}

/// The per-line baseline and sub-block(4), as (detector, nsub) pairs.
constexpr std::array<std::pair<DetectorKind, std::uint32_t>, 2> kBaseAndSub4{
    std::pair{DetectorKind::kBaseline, 1u},
    std::pair{DetectorKind::kSubBlock, 4u}};

/// One job of a figure's grid.
struct Cell {
  std::string workload;
  ExperimentConfig cfg;
};

/// Every workload under every config, workload-major.
std::vector<Cell> grid(const std::vector<std::string>& workloads,
                       const std::vector<ExperimentConfig>& cfgs) {
  std::vector<Cell> cells;
  for (const std::string& w : workloads) {
    for (const ExperimentConfig& cfg : cfgs) cells.push_back({w, cfg});
  }
  return cells;
}

/// Run a figure's cells and return their results in cell order. All cells
/// are submitted first so the pool executes across the blocking get()s;
/// results are byte-identical whatever the order (the simulator is
/// deterministic per job). A result that failed validation is kept, after
/// a complaint on `os` and *status = 1.
std::vector<ExperimentResult> run_cells(const CliOptions& opts,
                                        const std::vector<Cell>& cells,
                                        std::ostream& os, int* status) {
  runner::RunnerOptions ro;
  ro.jobs = opts.jobs;
  ro.use_cache = !opts.no_cache;
  ro.trace_dir = opts.trace_dir;
  ro.trace_format = opts.trace_format;
  Runner runner(ro);
  for (const Cell& c : cells) runner.submit(c.workload, c.cfg);
  std::vector<ExperimentResult> results;
  results.reserve(cells.size());
  for (const Cell& c : cells) {
    const ExperimentResult& r =
        results.emplace_back(runner.get(c.workload, c.cfg));
    if (!r.ok()) {
      os << "!! " << c.workload << " [" << r.detector
         << "] failed validation: " << r.validation_error << "\n";
      *status = 1;
    }
  }
  return results;
}

double reduction(std::uint64_t base, std::uint64_t now) {
  if (base == 0) return 0.0;
  return 1.0 - static_cast<double>(now) / static_cast<double>(base);
}

/// Aborted attempts per attempt (0 without attempts).
double abort_rate(const Stats& s) {
  return s.tx_attempts == 0 ? 0.0
                            : double(s.tx_aborts) / double(s.tx_attempts);
}

/// Per paper benchmark: its baseline, sub-block(4) and perfect results, in
/// that order (Figs 9 and 10).
std::vector<ExperimentResult> run_vs_perfect(const CliOptions& opts,
                                             std::ostream& os, int* status) {
  const ExperimentConfig cfg = experiment_config(opts);
  return run_cells(opts,
                   grid(paper_benchmarks(),
                        {cfg.with(DetectorKind::kBaseline),
                         cfg.with(DetectorKind::kSubBlock, 4),
                         cfg.with(DetectorKind::kPerfect)}),
                   os, status);
}

// ---------------------------------------------------------------------------
// Table I — sub-block state encoding, plus a scripted Fig 6/7 walkthrough.
// ---------------------------------------------------------------------------

Task<void> fig7_writer(GuestCtx& c, Addr line, bool* hold) {
  co_await c.run_tx([&]() -> Task<void> {
    co_await c.store_u64(line + 0, 0xAAAA);  // S-WR on sub-block 0
    *hold = true;
    co_await c.work(4000);  // stay speculative while the reader probes
  });
}

Task<void> fig7_reader(GuestCtx& c, Addr line, MemorySystem* mem,
                       std::ostream* os, bool* hold) {
  while (!*hold) co_await c.wait(50);
  co_await c.run_tx([&]() -> Task<void> {
    // Load a different sub-block: no true conflict; the response piggy-backs
    // the writer's S-WR mask and this copy's sub-block 0 becomes Dirty.
    const std::uint64_t v = co_await c.load_u64(line + 32);
    (void)v;
    *os << "  reader loaded sub-block 2; its sub-block 0 state: "
        << to_string(mem->subblock_state(c.core(), line_of(line), 0)) << "\n";
    *os << "  reader sub-block 2 state: "
        << to_string(mem->subblock_state(c.core(), line_of(line), 2)) << "\n";
    // Touch the Dirty sub-block: treated as a miss, re-probes, and aborts
    // the still-running writer (the Fig 6(a) RAW is NOT missed).
    const std::uint64_t w = co_await c.load_u64(line + 0);
    (void)w;
    *os << "  reader then loaded Dirty sub-block 0 (forced re-probe)\n";
  });
}

int table1_states(const CliOptions& opts, std::ostream& os) {
  (void)opts;
  os << "Paper Table I: sub-block state encoding\n";
  TextTable t({"SPEC", "WR", "State"});
  for (const auto s :
       {SubBlockState::kNonSpec, SubBlockState::kDirty,
        SubBlockState::kSpecRead, SubBlockState::kSpecWrite}) {
    t.add_row({std::to_string(spec_bit(s) ? 1 : 0),
               std::to_string(wr_bit(s) ? 1 : 0), to_string(s)});
  }
  t.print(os);

  os << "\nFig 7 walkthrough (2 cores, 4 sub-blocks, dirty-state handling):\n";
  SimConfig sim;
  sim.ncores = 2;
  Machine m(sim, DetectorKind::kSubBlock, 4);
  const Addr line = m.galloc().alloc_lines(1);
  bool hold = false;
  m.spawn(0, fig7_writer(m.ctx(0), line, &hold));
  m.spawn(1, fig7_reader(m.ctx(1), line, &m.mem(), &os, &hold));
  m.run();
  os << "  conflicts detected: " << m.stats().conflicts_total
     << " (RAW caught via the Dirty re-probe: "
     << m.stats().dirty_refetches << " dirty refetch)\n";
  os << "  piggy-back messages sent: " << m.stats().piggyback_messages << "\n";
  return (m.stats().dirty_refetches >= 1 && m.stats().conflicts_total >= 1)
             ? 0
             : 1;
}

// ---------------------------------------------------------------------------
// Table II — simulator configuration + latency verification probes.
// ---------------------------------------------------------------------------

Task<void> latency_probe(GuestCtx& c, Addr a, Cycle* first, Cycle* second) {
  Cycle t0 = c.now();
  co_await c.load_u64(a);
  *first = c.now() - t0;
  t0 = c.now();
  co_await c.load_u64(a);
  *second = c.now() - t0;
}

Task<void> c2c_writer(GuestCtx& c, Addr a, bool* ready) {
  co_await c.store_u64(a, 7);
  *ready = true;
}

Task<void> c2c_reader(GuestCtx& c, Addr a, bool* ready, Cycle* lat) {
  while (!*ready) co_await c.wait(20);
  const Cycle t0 = c.now();
  co_await c.load_u64(a);
  *lat = c.now() - t0;
}

int table2_config(const CliOptions& opts, std::ostream& os) {
  (void)opts;
  SimConfig cfg;
  os << "Paper Table II: simulation configuration\n";
  TextTable t({"Feature", "Description"});
  t.add_row({"Processors", std::to_string(cfg.ncores) +
                               " AMD-Opteron-like cores (in-order timing "
                               "model, DESIGN.md §2)"});
  t.add_row({"L1 DCache", std::to_string(cfg.l1.size_bytes / 1024) + "KB, " +
                              std::to_string(cfg.l1.line_bytes) + "B lines, " +
                              std::to_string(cfg.l1.ways) + "-way, " +
                              std::to_string(cfg.l1.latency) + " cycles"});
  t.add_row({"Private L2", std::to_string(cfg.l2.size_bytes / 1024) + "KB, " +
                               std::to_string(cfg.l2.ways) + "-way, " +
                               std::to_string(cfg.l2.latency) + " cycles"});
  t.add_row({"Private L3",
             std::to_string(cfg.l3.size_bytes / (1024 * 1024)) + "MB, " +
                 std::to_string(cfg.l3.ways) + "-way, " +
                 std::to_string(cfg.l3.latency) + " cycles"});
  t.add_row({"Main memory", std::to_string(cfg.mem_latency) + " cycles"});
  t.add_row({"Cache-to-cache", std::to_string(cfg.cache2cache_latency) +
                                   " cycles (HyperTransport-like)"});
  t.print(os);

  // Verify the headline load-to-use latencies with targeted probes.
  int status = 0;
  {
    SimConfig sim;
    sim.ncores = 1;
    Machine m(sim, DetectorKind::kBaseline);
    const Addr a = m.galloc().alloc_lines(1);
    Cycle first = 0, second = 0;
    m.spawn(0, latency_probe(m.ctx(0), a, &first, &second));
    m.run();
    os << "\nprobe: cold load " << first << " cycles (memory, expect "
       << sim.mem_latency << "), warm load " << second
       << " cycles (L1, expect " << sim.l1.latency << ")\n";
    if (first != sim.mem_latency || second != sim.l1.latency) status = 1;
  }
  {
    SimConfig sim;
    sim.ncores = 2;
    Machine m(sim, DetectorKind::kBaseline);
    const Addr a = m.galloc().alloc_lines(1);
    bool ready = false;
    Cycle lat = 0;
    m.spawn(0, c2c_writer(m.ctx(0), a, &ready));
    m.spawn(1, c2c_reader(m.ctx(1), a, &ready, &lat));
    m.run();
    os << "probe: remote-L1 load " << lat << " cycles (expect "
       << sim.cache2cache_latency << ")\n";
    if (lat != sim.cache2cache_latency) status = 1;
  }
  return status;
}

// ---------------------------------------------------------------------------
// Table III — benchmark registry.
// ---------------------------------------------------------------------------

int table3_benchmarks(const CliOptions& opts, std::ostream& os) {
  (void)opts;
  os << "Paper Table III: benchmark description\n";
  TextTable t({"Benchmark", "Description"});
  for (const auto& name : paper_benchmarks()) {
    t.add_row({name, make_workload(name)->description()});
  }
  t.print(os);
  return 0;
}

// ---------------------------------------------------------------------------
// Fig 1 — false-conflict rate per benchmark (baseline ASF).
// ---------------------------------------------------------------------------

int fig1_false_conflict_rate(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 1: false conflict rate of STAMP and RMS-TM benchmarks "
        "(baseline ASF)\n";
  Sheet t(opts.csv_dir, "fig1_false_conflict_rate",
          {{"Benchmark", "benchmark"}, {"Conflicts", "conflicts"},
           {"False", "false_conflicts"}, {"False rate", "false_rate"}});
  double sum = 0;
  for (const auto& r : run_cells(
           opts, grid(paper_benchmarks(), {experiment_config(opts)}), os,
           &status)) {
    const double rate = r.stats.false_conflict_rate();
    sum += rate;
    t.add({text(r.workload), count(r.stats.conflicts_total),
           count(r.stats.conflicts_false), pct(rate)});
  }
  t.print(os);
  os << "average false conflict rate: "
     << TextTable::pct(sum / paper_benchmarks().size())
     << "   (paper: ~46%, ssca2 & apriori >90%, intruder lowest)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 2 — WAR/RAW/WAW breakdown of false conflicts.
// ---------------------------------------------------------------------------

int fig2_conflict_type_breakdown(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 2: breakdown of false conflict types (baseline ASF)\n";
  Sheet t(opts.csv_dir, "fig2_conflict_type_breakdown",
          {{"Benchmark", "benchmark"}, {"WAR", "war"}, {"RAW", "raw"},
           {"WAW", "waw"}, {"WAR%", ""}, {"RAW%", ""}, {"WAW%", ""}});
  for (const auto& r : run_cells(
           opts, grid(paper_benchmarks(), {experiment_config(opts)}), os,
           &status)) {
    const auto& f = r.stats.false_by_type;
    const double total = std::max<std::uint64_t>(1, f[0] + f[1] + f[2]);
    t.add({text(r.workload), count(f[0]), count(f[1]), count(f[2]),
           pct(f[0] / total), pct(f[1] / total), pct(f[2] / total)});
  }
  t.print(os);
  os << "(paper: vacation & apriori WAR-dominant; kmeans, labyrinth, genome "
        "RAW-dominant; WAW ~0%)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 3 — cumulative false conflicts / launched transactions over time.
// ---------------------------------------------------------------------------

/// The four programs the paper profiles in Figs 3–5.
const std::vector<std::string> kProfiled{"vacation", "genome", "kmeans",
                                         "intruder"};

int fig3_time_distribution(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 3: cumulative transactions and false conflicts over execution "
        "(baseline ASF; 20 time buckets)\n";
  CsvWriter csv(opts.csv_dir, "fig3_time_distribution");
  csv.row({"benchmark", "bucket", "tx_started_cum", "false_conflicts_cum"});
  ExperimentConfig cfg = experiment_config(opts);
  cfg.timeseries = true;
  for (const auto& r : run_cells(opts, grid(kProfiled, {cfg}), os, &status)) {
    const std::string& name = r.workload;
    const Cycle end = std::max<Cycle>(1, r.stats.total_cycles);
    constexpr int kBuckets = 20;
    std::vector<std::uint64_t> tx(kBuckets, 0), fc(kBuckets, 0);
    for (const Cycle c : r.stats.tx_start_cycles) {
      ++tx[std::min<std::uint64_t>(kBuckets - 1, c * kBuckets / end)];
    }
    for (const Cycle c : r.stats.false_conflict_cycles) {
      ++fc[std::min<std::uint64_t>(kBuckets - 1, c * kBuckets / end)];
    }
    os << "\n" << name << " (total cycles " << end << "):\n";
    TextTable t({"t", "tx started (cum)", "false conflicts (cum)"});
    std::uint64_t txc = 0, fcc = 0;
    for (int b = 0; b < kBuckets; ++b) {
      txc += tx[b];
      fcc += fc[b];
      t.add_row({TextTable::num((b + 1) * 100.0 / kBuckets, 0) + "%",
                 std::to_string(txc), std::to_string(fcc)});
      csv.row({name, std::to_string(b), std::to_string(txc),
               std::to_string(fcc)});
    }
    t.print(os);
  }
  os << "\n(paper: launched-transaction curves near-linear; kmeans/vacation "
        "false conflicts track them, genome bursty)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 4 — false conflicts by cache-line index.
// ---------------------------------------------------------------------------

int fig4_line_distribution(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 4: false conflict count by physical cache line (baseline ASF; "
        "32 address bins + concentration)\n";
  CsvWriter csv(opts.csv_dir, "fig4_line_distribution");
  csv.row({"benchmark", "bin", "false_conflicts"});
  for (const auto& r : run_cells(
           opts, grid(kProfiled, {experiment_config(opts)}), os, &status)) {
    const std::string& name = r.workload;
    const auto& by_line = r.stats.false_by_line;
    if (by_line.empty()) {
      os << "\n" << name << ": no false conflicts\n";
      continue;
    }
    Addr lo = ~Addr{0}, hi = 0;
    for (const auto& [line, n] : by_line) {
      lo = std::min(lo, line);
      hi = std::max(hi, line);
    }
    constexpr int kBins = 32;
    std::vector<std::uint64_t> bins(kBins, 0);
    const Addr span = std::max<Addr>(1, hi - lo + kLineBytes);
    for (const auto& [line, n] : by_line) {
      bins[std::min<std::uint64_t>(kBins - 1, (line - lo) * kBins / span)] += n;
    }
    // Concentration: share of false conflicts on the 5 hottest lines.
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    for (const auto& [line, n] : by_line) {
      counts.push_back(n);
      total += n;
    }
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top5 = 0;
    for (std::size_t i = 0; i < counts.size() && i < 5; ++i) top5 += counts[i];

    os << "\n" << name << ": " << by_line.size() << " distinct lines, top-5 "
       << "lines hold " << TextTable::pct(double(top5) / double(total)) << "\n";
    os << "  bins:";
    for (int b = 0; b < kBins; ++b) {
      os << " " << bins[b];
      csv.row({name, std::to_string(b), std::to_string(bins[b])});
    }
    os << "\n";
  }
  os << "\n(paper: vacation/intruder near-uniform with a few peaks; kmeans "
        "concentrated on a few lines)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 5 — number of accesses by location inside a cache line.
// ---------------------------------------------------------------------------

int fig5_intra_line_access(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 5: transactional accesses by start offset within the cache "
        "line (baseline ASF)\n";
  CsvWriter csv(opts.csv_dir, "fig5_intra_line_access");
  csv.row({"benchmark", "offset", "accesses"});
  for (const auto& r : run_cells(
           opts, grid(kProfiled, {experiment_config(opts)}), os, &status)) {
    const std::string& name = r.workload;
    const auto& h = r.stats.tx_access_by_offset;
    // Infer the dominant access granularity: GCD of offsets carrying at
    // least 2% of the peak count.
    std::uint64_t peak = 1;
    for (const auto v : h) peak = std::max(peak, v);
    std::uint64_t stride = 0;
    for (std::uint32_t off = 1; off < 64; ++off) {
      if (h[off] * 50 >= peak) stride = std::gcd(stride, std::uint64_t{off});
    }
    if (stride == 0) stride = 64;
    os << "\n" << name << " (dominant granularity: " << stride << " bytes):\n ";
    for (std::uint32_t off = 0; off < 64; ++off) {
      os << " " << h[off];
      csv.row({name, std::to_string(off), std::to_string(h[off])});
    }
    os << "\n";
  }
  os << "\n(paper: accesses scattered at 8-byte granularity for vacation/"
        "genome/intruder, 4-byte for kmeans)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 8 — false-conflict reduction rate vs sub-block count.
// ---------------------------------------------------------------------------

int fig8_subblock_sensitivity(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 8: false conflict reduction rate with 2/4/8/16 sub-blocks\n"
        "(measured = actual re-runs with the sub-blocking detector;\n"
        " analytic = baseline false conflicts whose access masks no longer "
        "overlap when quantized)\n\n";
  CsvWriter csv(opts.csv_dir, "fig8_subblock_sensitivity");
  csv.row({"benchmark", "nsub", "measured_reduction", "analytic_reduction"});
  TextTable t({"Benchmark", "meas2", "meas4", "meas8", "meas16", "ana2",
               "ana4", "ana8", "ana16"});
  const ExperimentConfig cfg = experiment_config(opts);
  double avg4 = 0;
  // Per benchmark: the baseline, then sub-blocking at 2/4/8/16.
  const auto res = run_cells(
      opts,
      grid(paper_benchmarks(),
           {cfg.with(DetectorKind::kBaseline),
            cfg.with(DetectorKind::kSubBlock, 2),
            cfg.with(DetectorKind::kSubBlock, 4),
            cfg.with(DetectorKind::kSubBlock, 8),
            cfg.with(DetectorKind::kSubBlock, 16)}),
      os, &status);
  for (std::size_t b = 0; b < res.size(); b += 5) {
    const auto& base = res[b];
    std::vector<std::string> row{base.workload};
    std::vector<double> meas, ana;
    for (std::size_t i = b + 1; i < b + 5; ++i) {
      meas.push_back(
          reduction(base.stats.conflicts_false, res[i].stats.conflicts_false));
    }
    for (const std::uint32_t i : {1u, 2u, 3u, 4u}) {
      ana.push_back(reduction(base.stats.conflicts_false,
                              base.stats.false_surviving_at[i]));
    }
    avg4 += meas[1];
    for (const double v : meas) row.push_back(TextTable::pct(v));
    for (const double v : ana) row.push_back(TextTable::pct(v));
    t.add_row(row);
    for (std::size_t i = 0; i < 4; ++i) {
      csv.row({base.workload, std::to_string(2u << i),
               TextTable::num(meas[i], 4),
               TextTable::num(ana[i], 4)});
    }
  }
  t.print(os);
  os << "average measured reduction at 4 sub-blocks: "
     << TextTable::pct(avg4 / paper_benchmarks().size())
     << "   (paper headline: 56.4%)\n";
  os << "(paper: 16 sub-blocks eliminate all false conflicts; 8 near-100% "
        "except kmeans; utilitymine low at 4)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 9 — overall conflict reduction: sub-block(4) vs perfect.
// ---------------------------------------------------------------------------

int fig9_overall_conflict_reduction(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 9: percentage of overall (true+false) conflict reduction\n";
  Sheet t(opts.csv_dir, "fig9_overall_conflict_reduction",
          {{"Benchmark", "benchmark"}, {"Base confl", "baseline_conflicts"},
           {"SubBlock-4", "subblock4_reduction"},
           {"Perfect", "perfect_reduction"}});
  double sum4 = 0, sump = 0;
  const auto res = run_vs_perfect(opts, os, &status);
  for (std::size_t b = 0; b < res.size(); b += 3) {
    const std::uint64_t base = res[b].stats.conflicts_total;
    const double r4 = reduction(base, res[b + 1].stats.conflicts_total);
    const double rp = reduction(base, res[b + 2].stats.conflicts_total);
    sum4 += r4;
    sump += rp;
    t.add({text(res[b].workload), count(base), pct(r4), pct(rp)});
  }
  t.print(os);
  const double n = paper_benchmarks().size();
  os << "average: sub-block(4) " << TextTable::pct(sum4 / n) << ", perfect "
     << TextTable::pct(sump / n);
  if (sump > 0) {
    os << "  -> sub-block achieves "
       << TextTable::pct((sum4 / n) / (sump / n), 0)
       << " of the perfect system's reduction";
  }
  os << "\n(paper: 31.3% overall conflict elimination on average, ~83% of "
        "perfect; outliers intruder, utilitymine, labyrinth)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 10 — execution-time improvement: sub-block(4) vs perfect.
// ---------------------------------------------------------------------------

int fig10_execution_time(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 10: improvement of overall execution time vs baseline ASF\n";
  Sheet t(opts.csv_dir, "fig10_execution_time",
          {{"Benchmark", "benchmark"}, {"Base cycles", "baseline_cycles"},
           {"SubBlock-4", "subblock4_improvement"},
           {"Perfect", "perfect_improvement"},
           {"Base retries", "baseline_avg_retries"}});
  const auto res = run_vs_perfect(opts, os, &status);
  for (std::size_t b = 0; b < res.size(); b += 3) {
    const Stats& base = res[b].stats;
    t.add({text(res[b].workload), count(base.total_cycles),
           pct(reduction(base.total_cycles, res[b + 1].stats.total_cycles)),
           pct(reduction(base.total_cycles, res[b + 2].stats.total_cycles)),
           num(base.avg_retries(), 2, 3)});
  }
  t.print(os);
  os << "(paper: up to ~30% for high-retry programs (intruder, vacation, "
        "apriori); small for programs dominated by non-transactional "
        "time)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — WAR-only prior work (SpMT / DPTM style), paper §II.
// ---------------------------------------------------------------------------

int ablation_waronly(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (paper §II): WAR-only false-conflict reduction (SpMT/DPTM "
        "style) vs speculative sub-blocking\n";
  Sheet t(opts.csv_dir, "ablation_waronly",
          {{"Benchmark", "benchmark"}, {"Base false", "baseline_false"},
           {"WAR-only", "waronly_reduction"},
           {"SubBlock-4", "subblock4_reduction"}, {"Dominant type", ""}});
  const ExperimentConfig cfg = experiment_config(opts);
  const auto res = run_cells(opts,
                             grid(paper_benchmarks(),
                                  {cfg.with(DetectorKind::kBaseline),
                                   cfg.with(DetectorKind::kWarOnly),
                                   cfg.with(DetectorKind::kSubBlock, 4)}),
                             os, &status);
  for (std::size_t b = 0; b < res.size(); b += 3) {
    const Stats& base = res[b].stats;
    const auto& f = base.false_by_type;
    t.add({text(res[b].workload), count(base.conflicts_false),
           pct(reduction(base.conflicts_false,
                         res[b + 1].stats.conflicts_false)),
           pct(reduction(base.conflicts_false,
                         res[b + 2].stats.conflicts_false)),
           text(f[1] > f[0] ? "RAW" : "WAR")});
  }
  t.print(os);
  os << "(paper's critique: WAR-only schemes cannot help RAW-dominant "
        "programs like kmeans, labyrinth, genome)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — the §IV-D2 WAW-at-line rule vs sub-block-granular WAW.
// ---------------------------------------------------------------------------

int ablation_waw_rule(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (paper §IV-D2): WAW handled at line granularity (the "
        "paper's in-cache-versioning constraint) vs at sub-block "
        "granularity (possible with overlay versioning; DESIGN.md §6.5)\n";
  Sheet t(opts.csv_dir, "ablation_waw_rule",
          {{"Benchmark", "benchmark"},
           {"SubBlock-4 confl", "subblock4_conflicts"},
           {"WAW-line-4 confl", "wawline4_conflicts"},
           {"WAW-line false WAW", "wawline_false_waw"}});
  const ExperimentConfig cfg = experiment_config(opts);
  const auto res = run_cells(
      opts,
      grid(paper_benchmarks(), {cfg.with(DetectorKind::kSubBlock, 4),
                                cfg.with(DetectorKind::kSubBlockWawLine, 4)}),
      os, &status);
  for (std::size_t b = 0; b < res.size(); b += 2) {
    const Stats& wl = res[b + 1].stats;
    t.add({text(res[b].workload), count(res[b].stats.conflicts_total),
           count(wl.conflicts_total), count(wl.false_by_type[2])});
  }
  t.print(os);
  os << "(write-heavy programs pay heavily for the line-granular WAW rule; "
        "the paper tolerates it because its workloads' WAW false share was "
        "~0%)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — adaptive transaction scheduling (extension; Yoo & Lee, cited
// in the paper's introduction) composed with sub-blocking.
// ---------------------------------------------------------------------------

int ablation_ats(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (extension): adaptive transaction scheduling (ATS) "
        "composed with speculative sub-blocking\n";
  Sheet t(opts.csv_dir, "ablation_ats",
          {{"Benchmark", "benchmark"}, {"Config", "config"},
           {"Conflicts", "conflicts"}, {"Cycles", "cycles"},
           {"ATS dispatch", "ats_dispatches"}});
  constexpr std::array<std::tuple<const char*, DetectorKind, bool>, 4>
      kAtsConfigs{std::tuple{"baseline", DetectorKind::kBaseline, false},
                  std::tuple{"baseline+ATS", DetectorKind::kBaseline, true},
                  std::tuple{"subblock4", DetectorKind::kSubBlock, false},
                  std::tuple{"subblock4+ATS", DetectorKind::kSubBlock, true}};
  std::vector<ExperimentConfig> cfgs;
  for (const auto& [label, det, ats] : kAtsConfigs) {
    ExperimentConfig c = experiment_config(opts).with(det, 4);
    c.sim.enable_ats = ats;
    c.sim.ats_threshold = 0.4;
    cfgs.push_back(c);
  }
  const auto res = run_cells(
      opts, grid({"vacation", "kmeans", "scalparc", "counter"}, cfgs), os,
      &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    t.add({text(res[i].workload),
           text(std::get<0>(kAtsConfigs[i % kAtsConfigs.size()])),
           count(s.conflicts_total), count(s.total_cycles),
           count(s.ats_serialized)});
  }
  t.print(os);
  os << "(scheduling attacks the same abort storms from the timing side; "
        "sub-blocking removes their false-sharing cause — they compose)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — core-count sensitivity (the paper fixes 8 cores).
// ---------------------------------------------------------------------------

int ablation_cores(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (extension): false-conflict rate vs core count "
        "(baseline ASF; the paper fixes 8 cores)\n";
  Sheet t(opts.csv_dir, "ablation_cores",
          {{"Benchmark", "benchmark"}, {"Cores", "cores"},
           {"Conflicts", "conflicts"}, {"False rate", "false_rate"}});
  const auto cells = grid({"ssca2", "vacation", "kmeans"},
                          {on_cores(opts, 2), on_cores(opts, 4),
                           on_cores(opts, 8)});
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    t.add({text(res[i].workload), count(cells[i].cfg.sim.ncores),
           count(s.conflicts_total), pct(s.false_conflict_rate())});
  }
  t.print(os);
  os << "(more cores -> more concurrent speculative state -> more false "
        "sharing opportunities)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — seed variance (the paper flags labyrinth's tiny conflict
// counts as high-variance in Fig 9).
// ---------------------------------------------------------------------------

int ablation_variance(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  constexpr int kSeeds = 8;
  os << "Ablation (extension): seed-to-seed variance of the Fig 9 metric "
        "(overall conflict reduction, sub-block 4 vs baseline), " << kSeeds
     << " seeds\n";
  Sheet t(opts.csv_dir, "ablation_variance",
          {{"Benchmark", "benchmark"}, {"Mean", "mean_reduction"},
           {"Stddev", "stddev"}, {"Min", "min"}, {"Max", "max"},
           {"Base confl", "mean_base_conflicts"}});
  // Per benchmark and seed: the baseline, then sub-blocking at 4.
  std::vector<ExperimentConfig> cfgs;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    ExperimentConfig cfg = experiment_config(opts);
    cfg.params.seed = static_cast<std::uint64_t>(seed);
    cfgs.push_back(cfg.with(DetectorKind::kBaseline));
    cfgs.push_back(cfg.with(DetectorKind::kSubBlock, 4));
  }
  const auto res = run_cells(
      opts, grid({"labyrinth", "ssca2", "vacation"}, cfgs), os, &status);
  for (std::size_t b = 0; b < res.size(); b += cfgs.size()) {
    std::vector<double> red;
    double base_conf = 0;
    for (std::size_t i = b; i < b + cfgs.size(); i += 2) {
      const auto& base = res[i].stats;
      red.push_back(
          reduction(base.conflicts_total, res[i + 1].stats.conflicts_total));
      base_conf += static_cast<double>(base.conflicts_total);
    }
    double mean = 0, lo = red[0], hi = red[0];
    for (const double v : red) {
      mean += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    mean /= red.size();
    double var = 0;
    for (const double v : red) var += (v - mean) * (v - mean);
    t.add({text(res[b].workload), pct(mean), pct(std::sqrt(var / red.size())),
           pct(lo), pct(hi), num(base_conf / kSeeds, 0, 1)});
  }
  t.print(os);
  os << "(paper §V-B: labyrinth's absolute conflict count is tiny — "
        "sometimes below 20 — so its percentage metric swings wildly; the "
        "large-count benchmarks are tight)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Overhead accounting — paper §IV-E.
// ---------------------------------------------------------------------------

int ablation_overhead(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  SimConfig cfg;
  os << "Overhead accounting (paper §IV-E)\n\nHardware state:\n";
  TextTable t({"Sub-blocks", "Bits/line", "Extra vs ASF", "L1 overhead",
               "Relative"});
  const std::uint64_t lines = cfg.l1.size_bytes / cfg.l1.line_bytes;
  for (const std::uint32_t n : {2u, 4u, 8u, 16u}) {
    const std::uint64_t bits = 2ull * n;
    const std::uint64_t extra = 2ull * (n - 1);
    const double kb = double(extra) * double(lines) / 8.0 / 1024.0;
    t.add_row({std::to_string(n), std::to_string(bits),
               std::to_string(extra) + " bits", TextTable::num(kb) + " KB",
               TextTable::pct(kb * 1024.0 / cfg.l1.size_bytes, 2)});
  }
  t.print(os);
  os << "(paper: 4 sub-blocks on a 64KB L1 => 0.75KB = 1.17%)\n\n";

  os << "Message traffic under sub-block(4):\n";
  Sheet m(opts.csv_dir, "ablation_overhead",
          {{"Benchmark", "benchmark"}, {"Probes", "probes"},
           {"Piggy-back msgs", "piggyback"},
           {"Dirty refetches", "dirty_refetches"}, {"Piggy-back share", ""}});
  const ExperimentConfig tcfg =
      experiment_config(opts).with(DetectorKind::kSubBlock, 4);
  for (const auto& r :
       run_cells(opts, grid(paper_benchmarks(), {tcfg}), os, &status)) {
    const Stats& s = r.stats;
    const double share =
        s.probes_sent == 0 ? 0.0
                           : double(s.piggyback_messages) / s.probes_sent;
    m.add({text(r.workload), count(s.probes_sent),
           count(s.piggyback_messages), count(s.dirty_refetches),
           pct(share)});
  }
  m.print(os);
  os << "(piggy-back bits ride on messages that already exist; the paper "
        "argues the extra bits are negligible vs the 64-byte payload)\n";

  // Tracing overhead (docs/observability.md): tracing must never perturb
  // the simulation. The binding check is byte-identical stats — the
  // deterministic form of "zero simulated overhead"; the host wall times
  // printed alongside bound the real-time cost of each sink.
  os << "\nTracing overhead (vacation, sub-block/4):\n";
  const auto tmp =
      std::filesystem::temp_directory_path() / "asfsim-trace-ablation";
  TextTable tt({"Tracing", "Cycles", "Host ms", "Stats vs off"});
  std::string off_blob;
  for (const auto& [label, trace] :
       {std::pair<const char*, TraceOptions>{"off", {}},
        {"jsonl", {TraceFormat::kJsonl, (tmp / "t.jsonl").string()}},
        {"perfetto",
         {TraceFormat::kPerfetto, (tmp / "t.perfetto.json").string()}}}) {
    const auto t0 = std::chrono::steady_clock::now();
    const ExperimentResult r = run_experiment("vacation", tcfg, trace);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const std::string blob = serialize_stats(r.stats);
    if (off_blob.empty()) off_blob = blob;
    const bool same = blob == off_blob;
    if (!same) status = 1;
    tt.add_row({label, std::to_string(r.stats.total_cycles),
                TextTable::num(ms, 1), same ? "identical" : "DIFFERS"});
  }
  tt.print(os);
  os << "(simulated results must be byte-identical with tracing on; the "
        "host-time cost is I/O only)\n";
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — why the paper excluded yada: speculative-capacity overflow.
// ---------------------------------------------------------------------------

int ablation_capacity(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (paper §III footnote): why yada was excluded — its "
        "transactions overflow the 2-way L1's speculative capacity\n";
  Sheet t(opts.csv_dir, "ablation_capacity",
          {{"Benchmark", "benchmark"}, {"Commits", "commits"},
           {"Capacity aborts", "capacity_aborts"},
           {"Fallback runs", "fallback_runs"},
           {"Conflict aborts", "conflict_aborts"}});
  for (const auto& r : run_cells(
           opts,
           grid({"yada", "vacation", "genome", "kmeans"},
                {experiment_config(opts).with(DetectorKind::kBaseline)}),
           os, &status)) {
    const Stats& s = r.stats;
    t.add({text(r.workload), count(s.tx_commits),
           count(s.aborts_by_cause[1]), count(s.fallback_runs),
           count(s.aborts_by_cause[0])});
  }
  t.print(os);
  os << "(yada's every transaction capacity-aborts and serializes through "
        "the software fallback — best-effort HTM cannot run it "
        "transactionally, exactly the paper's reason for exclusion; the "
        "evaluated benchmarks fit with zero or near-zero capacity "
        "aborts)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — L1 geometry sensitivity (the best-effort capacity contract).
// ---------------------------------------------------------------------------

int ablation_l1_geometry(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (extension): L1 geometry sensitivity (baseline ASF). ASF "
        "is best-effort: speculative footprints are bounded by the L1's "
        "associativity and size.\n";
  Sheet t(opts.csv_dir, "ablation_l1_geometry",
          {{"Benchmark", "benchmark"}, {"L1", ""}, {"", "l1_kb"},
           {"", "ways"}, {"Capacity aborts", "capacity_aborts"},
           {"Fallbacks", "fallbacks"}, {"Cycles", "cycles"}});
  std::vector<ExperimentConfig> cfgs;
  for (const auto& [kb, ways] : {std::pair{16u, 1u}, std::pair{64u, 2u},
                                 std::pair{64u, 8u}}) {
    ExperimentConfig cfg = experiment_config(opts);
    cfg.sim.l1.size_bytes = kb * 1024;
    cfg.sim.l1.ways = ways;
    cfgs.push_back(cfg.with(DetectorKind::kBaseline));
  }
  const auto cells = grid({"vacation", "genome", "yada"}, cfgs);
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    const std::uint32_t kb = cells[i].cfg.sim.l1.size_bytes / 1024;
    const std::uint32_t ways = cells[i].cfg.sim.l1.ways;
    t.add({text(res[i].workload),
           text(std::to_string(kb) + "KB/" + std::to_string(ways) + "w"),
           count(kb), count(ways), count(s.aborts_by_cause[1]),
           count(s.fallback_runs), count(s.total_cycles)});
  }
  t.print(os);
  os << "(a direct-mapped 16KB L1 forces even the evaluated benchmarks "
        "into capacity aborts; yada overflows the paper's 2-way L1 at any "
        "size and only fits once the associativity grows past its cavity "
        "footprint)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — input-scale sensitivity (the EXPERIMENTS.md caveat, measured).
// ---------------------------------------------------------------------------

int ablation_scale(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (extension): false-conflict rate vs input scale "
        "(baseline ASF). Smaller inputs concentrate sharing, raising the "
        "false rate above the paper's full-size runs — the key deviation "
        "documented in EXPERIMENTS.md.\n";
  Sheet t(opts.csv_dir, "ablation_scale",
          {{"Benchmark", "benchmark"}, {"Scale", "scale"},
           {"Conflicts", "conflicts"}, {"False rate", "false_rate"}});
  std::vector<ExperimentConfig> cfgs;
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    ExperimentConfig cfg = experiment_config(opts);
    cfg.params.scale = opts.scale * scale;
    cfgs.push_back(cfg.with(DetectorKind::kBaseline));
  }
  const auto cells = grid({"ssca2", "vacation", "kmeans"}, cfgs);
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    t.add({text(res[i].workload), num(cells[i].cfg.params.scale, 2, 2),
           count(s.conflicts_total), pct(s.false_conflict_rate())});
  }
  t.print(os);
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — does atomic-at-issue coherence bias the results? (DESIGN.md §2)
// ---------------------------------------------------------------------------

int ablation_timing(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (extension): atomic-at-issue vs delayed-probe coherence "
        "timing. With probe_delay > 0, broadcasts execute (and conflict "
        "checks run) that many cycles after issue, against the machine "
        "state at delivery — the substitution DESIGN.md §2 documents is "
        "valid if the conflict profile barely moves while cycles grow.\n";
  Sheet t(opts.csv_dir, "ablation_timing",
          {{"Benchmark", "benchmark"}, {"Probe delay", "probe_delay"},
           {"Conflicts", "conflicts"}, {"False rate", "false_rate"},
           {"Cycles", "cycles"}});
  std::vector<ExperimentConfig> cfgs;
  for (const Cycle delay : {Cycle{0}, Cycle{20}, Cycle{50}}) {
    ExperimentConfig cfg = experiment_config(opts);
    cfg.sim.probe_delay = delay;
    cfgs.push_back(cfg.with(DetectorKind::kBaseline));
  }
  const auto cells = grid({"ssca2", "vacation", "kmeans", "genome"}, cfgs);
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    t.add({text(res[i].workload), count(cells[i].cfg.sim.probe_delay),
           count(s.conflicts_total), pct(s.false_conflict_rate()),
           count(s.total_cycles)});
  }
  t.print(os);
  os << "(false-conflict rates are stable across probe timing; only the "
        "cycle counts scale with the extra flight time)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Fig 11 (extension) — OLTP throughput & latency vs zipf skew.
// ---------------------------------------------------------------------------

int fig11_throughput_vs_skew(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 11 (extension): OLTP commits per simulated second and latency "
        "percentiles vs zipf skew, core count and detector\n"
        "(mix: " << to_string(opts.oltp.mix)
     << "; latency = logical transaction begin -> commit/fallback, "
        "including retries and backoff; docs/workloads.md)\n";
  Sheet t(opts.csv_dir, "fig11_throughput_vs_skew",
          {{"theta", "theta"}, {"cores", "cores"}, {"detector", "detector"},
           {"", "commits"}, {"commits/s", "commits_per_simsec"},
           {"p50", "p50_cycles"}, {"p95", "p95_cycles"},
           {"p99", "p99_cycles"}, {"abort%", "abort_rate"},
           {"fallbacks", "fallback_runs"}});
  constexpr std::array<double, 4> kThetas{0.0, 0.6, 0.9, 1.2};
  constexpr std::array<std::uint32_t, 3> kCores{2u, 4u, 8u};
  constexpr std::array<std::pair<DetectorKind, std::uint32_t>, 3> kDets{
      std::pair{DetectorKind::kBaseline, 1u},
      std::pair{DetectorKind::kSubBlock, 4u},
      std::pair{DetectorKind::kPerfect, 1u}};
  std::vector<Cell> cells;
  for (const double theta : kThetas) {
    for (const std::uint32_t cores : kCores) {
      for (const auto& [det, nsub] : kDets) {
        ExperimentConfig cfg = on_cores(opts, cores);
        cfg.params.oltp.theta = theta;
        cells.push_back({"oltp", cfg.with(det, nsub)});
      }
    }
  }
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    t.add({num(cells[i].cfg.params.oltp.theta, 2, 2),
           count(cells[i].cfg.sim.ncores), text(res[i].detector),
           count(s.tx_commits), num(s.commits_per_simsec(), 0, 1),
           num(s.latency_percentile(0.50), 0, 1),
           num(s.latency_percentile(0.95), 0, 1),
           num(s.latency_percentile(0.99), 0, 1), pct(abort_rate(s)),
           count(s.fallback_runs)});
  }
  t.print(os);
  os << "(skew concentrates traffic on adjacent hot records -> false "
        "sharing: sub-blocking recovers throughput between uniform and the "
        "perfect detector; tail latencies grow with theta and cores)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Provenance extension — false-conflict share by allocation site x detector.
// ---------------------------------------------------------------------------

int fig_conflict_attribution(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Conflict attribution (extension): share of false conflicts by "
        "allocation site and detector\n"
        "(site registry + per-conflict attribution; "
        "docs/observability.md, \"Conflict provenance\")\n";
  Sheet t(opts.csv_dir, "fig_conflict_attribution",
          {{"Benchmark", "workload"}, {"Detector", "detector"},
           {"Site", "site"}, {"Objects", "objects"}, {"False", "false"},
           {"Share", "false_share"}, {"True", "true"},
           {"Avoided", "avoided"}, {"Wasted", "wasted_cycles"}});
  std::vector<Cell> cells;
  for (const std::string name : {"oltp", "vacation", "genome"}) {
    ExperimentConfig cfg = experiment_config(opts);
    cfg.sim.provenance = true;  // the figure IS the attribution
    if (name == "oltp") {
      // Contended regime: skewed traffic over unpadded adjacent records.
      cfg.params.oltp.theta = std::max(cfg.params.oltp.theta, 0.9);
    }
    for (const auto& [det, nsub] : kBaseAndSub4) {
      cells.push_back({name, cfg.with(det, nsub)});
    }
  }
  for (const auto& r : run_cells(opts, cells, os, &status)) {
    const auto& tab = r.stats.prov_site_table;
    std::vector<std::size_t> order(tab.size() / prov::kSiteStride);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::uint64_t total_false = 0;
    for (const std::size_t i : order) {
      total_false += prov::site_false(prov::site_row(tab, i));
    }
    std::sort(order.begin(), order.end(), [&tab](std::size_t a,
                                                 std::size_t b) {
      const std::uint64_t fa = prov::site_false(prov::site_row(tab, a));
      const std::uint64_t fb = prov::site_false(prov::site_row(tab, b));
      if (fa != fb) return fa > fb;
      return a < b;
    });
    std::size_t shown = 0;
    for (const std::size_t i : order) {
      const std::uint64_t* row = prov::site_row(tab, i);
      const std::uint64_t f = prov::site_false(row);
      const std::uint64_t tr = prov::site_true(row);
      if (f + tr + row[prov::kSiteAvoided] == 0) continue;  // never conflicted
      if (shown >= 4) break;  // top offenders only, in the CSV too
      ++shown;
      const double share =
          total_false == 0 ? 0.0
                           : static_cast<double>(f) /
                                 static_cast<double>(total_false);
      t.add({text(r.workload), text(r.detector),
             text(r.stats.prov_site_names[i]), count(row[prov::kSiteObjects]),
             count(f), pct(share), count(tr), count(row[prov::kSiteAvoided]),
             count(row[prov::kSiteWasted])});
    }
  }
  t.print(os);
  os << "(the unpadded OLTP record table should dominate false conflicts "
        "under the baseline detector, with sub-blocking converting most of "
        "its share into avoided conflicts)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Ablation — commit rate / wasted work vs injected spurious-abort rate.
// ---------------------------------------------------------------------------

int ablation_fault_sweep(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Ablation (robustness): commit rate and wasted cycles vs injected "
        "spurious-abort rate (--fault-spurious), per detector\n";
  Sheet t(opts.csv_dir, "ablation_fault_sweep",
          {{"Workload", "workload"}, {"Detector", "detector"},
           {"Spurious", "spurious_rate"}, {"Commit rate", "commit_rate"},
           {"Wasted cycles", "wasted_cycles"},
           {"Commits/s", "commits_per_simsec"}});
  std::vector<ExperimentConfig> cfgs;
  for (const auto& [det, nsub] : kBaseAndSub4) {
    for (const double rate : {0.0, 0.002, 0.01, 0.05}) {
      ExperimentConfig cfg = experiment_config(opts);
      cfg.sim.fault.spurious_abort_rate = rate;
      cfgs.push_back(cfg.with(det, nsub));
    }
  }
  std::vector<std::pair<std::string, FaultCounters>> audits;
  const auto cells = grid({"vacation", "oltp"}, cfgs);
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const auto& r = res[i];
    const double rate = cells[i].cfg.sim.fault.spurious_abort_rate;
    const double commit_rate =
        r.stats.tx_attempts == 0
            ? 0.0
            : double(r.stats.tx_commits) / double(r.stats.tx_attempts);
    t.add({text(r.workload), text(r.detector), num(rate, 3, 4),
           pct(commit_rate), count(r.stats.wasted_cycles),
           num(r.stats.commits_per_simsec(), 0, 1)});
    if (r.has_fault_counters) {
      audits.emplace_back(r.workload + " [" + r.detector + "] rate " +
                              TextTable::num(rate, 3),
                          r.fault_counters);
    }
  }
  t.print(os);
  if (!audits.empty()) {
    os << "\nInjected-fault audit (executed fault-injected runs only; cache "
          "hits carry no counters):\n";
    for (const auto& [label, fc] : audits) {
      os << label << "\n";
      print_fault_counters(os, fc);
    }
  }
  os << "(injected aborts waste the aborted attempts' cycles; the commit "
        "rate degrades smoothly and no detector changes workload results)\n";
  return status;
}

// ---------------------------------------------------------------------------
// Contention-management extension — execution time and fairness by policy.
// ---------------------------------------------------------------------------

int fig10_policy_sweep(const CliOptions& opts, std::ostream& os) {
  int status = 0;
  os << "Fig 10b (extension): execution time and fairness by contention "
        "policy, detector and core count\n"
        "(workloads: livelock storm, contended oltp (theta 1.1, 256 "
        "records), intruder; cm accounting on; docs/contention.md)\n";
  Sheet t(opts.csv_dir, "fig10_policy_sweep",
          {{"workload", "workload"}, {"policy", "policy"},
           {"detector", "detector"}, {"cores", "cores"}, {"cycles", "cycles"},
           {"abort%", "abort_rate"}, {"fallbacks", "fallback_runs"},
           {"req-losses", "requester_losses"},
           {"max-streak", "max_consec_aborts"}, {"gini", "wasted_gini"}});
  std::vector<Cell> cells;
  for (const std::string wl : {"livelock", "oltp", "intruder"}) {
    for (const CmPolicyKind pol :
         {CmPolicyKind::kRequesterWins, CmPolicyKind::kPolite,
          CmPolicyKind::kTimestamp, CmPolicyKind::kSerialize}) {
      for (const std::uint32_t cores : {2u, 4u, 8u}) {
        ExperimentConfig cfg = on_cores(opts, cores);
        cfg.sim.cm.policy = pol;
        cfg.sim.cm.stats = true;  // fairness columns need the v5 accounting
        if (wl == "oltp") {
          // The contended variant: a hot 256-record table under strong skew.
          cfg.params.oltp.records = 256;
          cfg.params.oltp.theta = 1.1;
        }
        for (const auto& [det, nsub] : kBaseAndSub4) {
          cells.push_back({wl, cfg.with(det, nsub)});
        }
      }
    }
  }
  const auto res = run_cells(opts, cells, os, &status);
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Stats& s = res[i].stats;
    const std::uint64_t streak =
        s.cm_max_consec_aborts.empty()
            ? 0
            : *std::max_element(s.cm_max_consec_aborts.begin(),
                                s.cm_max_consec_aborts.end());
    t.add({text(res[i].workload), text(to_string(cells[i].cfg.sim.cm.policy)),
           text(res[i].detector), count(cells[i].cfg.sim.ncores),
           count(s.total_cycles), pct(abort_rate(s)), count(s.fallback_runs),
           count(s.cm_requester_losses), count(streak),
           num(s.cm_wasted_gini(), 3, 4)});
  }
  t.print(os);
  os << "(requester-wins is the throughput baseline; polite trades wasted "
        "cycles for requester aborts, timestamp narrows the per-core "
        "wasted-cycle spread (gini) on the contended workloads, and "
        "serialize caps every streak at its retry bound via the fallback "
        "lock)\n";
  return status;
}

constexpr Figure kFigures[] = {
    {"table1_states", table1_states},
    {"table2_config", table2_config},
    {"table3_benchmarks", table3_benchmarks},
    {"fig1_false_conflict_rate", fig1_false_conflict_rate},
    {"fig2_conflict_type_breakdown", fig2_conflict_type_breakdown},
    {"fig3_time_distribution", fig3_time_distribution},
    {"fig4_line_distribution", fig4_line_distribution},
    {"fig5_intra_line_access", fig5_intra_line_access},
    {"fig8_subblock_sensitivity", fig8_subblock_sensitivity},
    {"fig9_overall_conflict_reduction", fig9_overall_conflict_reduction},
    {"fig10_execution_time", fig10_execution_time},
    {"fig10_policy_sweep", fig10_policy_sweep},
    {"fig11_throughput_vs_skew", fig11_throughput_vs_skew},
    {"fig_conflict_attribution", fig_conflict_attribution},
    {"ablation_waronly", ablation_waronly},
    {"ablation_ats", ablation_ats},
    {"ablation_cores", ablation_cores},
    {"ablation_variance", ablation_variance},
    {"ablation_capacity", ablation_capacity},
    {"ablation_l1_geometry", ablation_l1_geometry},
    {"ablation_scale", ablation_scale},
    {"ablation_timing", ablation_timing},
    {"ablation_waw_rule", ablation_waw_rule},
    {"ablation_overhead", ablation_overhead},
    {"ablation_fault_sweep", ablation_fault_sweep},
};

}  // namespace

std::span<const Figure> registry() { return kFigures; }

const Figure* find(std::string_view name) {
  for (const Figure& f : kFigures) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

int cli_main(int argc, char** argv, std::ostream& os) {
  const Figure* figure = nullptr;
  bool list = false;
  const CliSpec spec{
      .groups = kCliAllGroups,
      .flags = {switch_flag("--list", list)},
      .positionals = {{"[<figure>]", "", [&figure](CliArgs& a) {
                         figure = find(a.arg());
                         if (figure == nullptr) {
                           a.fail("unknown figure '" + std::string(a.arg()) +
                                  "' (see --list)");
                         }
                       }}}};
  const CliOptions opts = parse_cli(argc, argv, spec);
  if (list) {
    for (const Figure& f : kFigures) os << f.name << "\n";
    return 0;
  }
  if (figure == nullptr) {
    std::fprintf(stderr, "%s: name a figure (see --list)\n", argv[0]);
    return 2;
  }
  try {
    return figure->run(opts, os);
  } catch (const std::exception& e) {
    // One line; a failed job's full diagnostic is in the run manifest.
    const std::string what = e.what();
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], figure->name,
                 what.substr(0, what.find('\n')).c_str());
    return 1;
  }
}

}  // namespace asfsim::figures
