// asfbench: the measurement driver of the repository benchmark
// (benchmark/README.md).
//
// One process runs one workload and prints one JSON object of measurements
// on stdout. benchmark/run.py builds this binary, checks the printed
// stats-blob FNVs against benchmark/goldens.json and reports the metrics.
//
// Every layer is timed from outside the library: the driver constructs its
// Machines itself and times only calls into public functions
// (Machine::Machine, Workload::setup/validate, Machine::run,
// serialize_stats/deserialize_stats, runner::make_job_spec,
// ResultCache::store/load, Runner::submit and the returned futures). Layer
// counts come from the public Stats; the traced replay attaches a TraceSink
// of its own through Machine::add_trace_sink.
//
// Usage: asfbench --workload NAME --work-dir DIR [--seed N] [--seconds S]
//                 [--smoke] [--trace FILE]
//
// --seconds is how long the measured passes run (at least kMinPasses of
// them); the sweep's runner pool has min(4, allowed CPUs) workers.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "runner/job_spec.hpp"
#include "runner/result_cache.hpp"
#include "runner/runner.hpp"
#include "stats/serialize.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"
#include "workloads/workload.hpp"

namespace asfsim::bench {
namespace {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process image, in KB. getrusage's ru_maxrss
/// would do, except Linux carries it across execve, so a driver started by
/// a larger parent would report the parent's peak; VmHWM starts afresh.
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread to one CPU until destroyed, then restores its
/// mask; threads started meanwhile would inherit the pin. A negative `cpu`
/// pins nothing.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) : pinned_(cpu >= 0) {
    if (!pinned_) return;
    ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  }
  ~PinnedTo() {
    if (pinned_) {
      ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    }
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  bool pinned_;
  cpu_set_t saved_{};
};

volatile std::uint64_t g_calib_sink = 0;

/// Host-speed probe: ns per step of a fixed dependent chain of integer
/// multiply/xor-shift steps (no memory traffic), median of five runs. It is
/// reported beside the timings so host drift is visible; nothing divides
/// by it.
double calib_ns() {
  constexpr int kSteps = 1 << 21;
  std::vector<double> samples;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(r);
    const double t0 = now_s();
    for (int i = 0; i < kSteps; ++i) {
      x ^= x >> 29;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 32;
    }
    samples.push_back((now_s() - t0) * 1e9 / kSteps);
    g_calib_sink = g_calib_sink ^ x;
  }
  return median(samples);
}

// ---- workloads --------------------------------------------------------------

struct Job {
  std::string name;  // key in benchmark/goldens.json
  std::string workload;
  ExperimentConfig cfg;
};

ExperimentConfig job_config(DetectorKind det, std::uint32_t nsub,
                            std::uint64_t seed, double scale) {
  ExperimentConfig cfg;
  cfg.detector = det;
  cfg.nsub = nsub;
  cfg.sim.ncores = 8;
  cfg.params.threads = 8;
  cfg.params.seed = seed;
  cfg.params.scale = scale;
  return cfg;
}

// The six STAMP cells of BENCH_kernel.json, with its row names and scales:
// long single simulations where the kernel, the coherence walk and all
// three detector families do the work.
std::vector<Job> stamp_large(std::uint64_t seed, bool smoke) {
  struct Cell {
    const char* name;
    const char* workload;
    DetectorKind det;
    std::uint32_t nsub;
    double scale;
  };
  static constexpr Cell kCells[] = {
      {"vacation/subblock-4", "vacation", DetectorKind::kSubBlock, 4, 16},
      {"vacation/baseline", "vacation", DetectorKind::kBaseline, 1, 16},
      {"genome/subblock-4", "genome", DetectorKind::kSubBlock, 4, 24},
      {"intruder/subblock-8", "intruder", DetectorKind::kSubBlock, 8, 24},
      {"kmeans/baseline", "kmeans", DetectorKind::kBaseline, 1, 16},
      {"ssca2/perfect", "ssca2", DetectorKind::kPerfect, 1, 24},
  };
  std::vector<Job> jobs;
  for (const Cell& c : kCells) {
    jobs.push_back({c.name, c.workload,
                    job_config(c.det, c.nsub, seed,
                               smoke ? c.scale / 16 : c.scale)});
  }
  return jobs;
}

// One oltp table shape run on subblock-4 and then baseline-asf.
std::vector<Job> kv_pair(const char* name, OltpMix mix, double theta,
                         std::uint64_t records, std::uint64_t tx_per_thread,
                         std::uint64_t seed, bool smoke) {
  std::vector<Job> jobs;
  for (const auto& [det, nsub, label] :
       {std::tuple{DetectorKind::kSubBlock, 4U, "subblock-4"},
        std::tuple{DetectorKind::kBaseline, 1U, "baseline"}}) {
    ExperimentConfig cfg = job_config(det, nsub, seed, 1.0);
    OltpConfig& o = cfg.params.oltp;
    o.mix = mix;
    o.theta = theta;
    o.records = records;
    o.payload_bytes = 16;  // 24-byte records: 8-byte version + payload
    o.tx_len = 8;
    o.tx_per_thread = smoke ? tx_per_thread / 16 : tx_per_thread;
    jobs.push_back({std::string(name) + "/" + label, "oltp", cfg});
  }
  return jobs;
}

// Writes and aborts dominate: a 12 KB zipf-1.1 table under YCSB-A.
std::vector<Job> kv_hot_update(std::uint64_t seed, bool smoke) {
  return kv_pair("kv-hot-update", OltpMix::kA, 1.1, 512, 32000, seed, smoke);
}

// Reads only, over a 6 MB table against 2.5 MB of cache per core.
std::vector<Job> kv_wide_read(std::uint64_t seed, bool smoke) {
  return kv_pair("kv-wide-read", OltpMix::kC, 0.6, 262144, 24000, seed,
                 smoke);
}

// The figure sweep users run: 10 paper benchmarks x 6 detectors x 8 seeds
// of short jobs (one seed in smoke mode).
std::vector<Job> paper_sweep(std::uint64_t seed, bool smoke) {
  struct Det {
    DetectorKind kind;
    std::uint32_t nsub;
    const char* label;
  };
  static constexpr Det kDets[] = {
      {DetectorKind::kBaseline, 4, "baseline-asf"},
      {DetectorKind::kSubBlock, 2, "subblock-2"},
      {DetectorKind::kSubBlock, 4, "subblock-4"},
      {DetectorKind::kSubBlock, 8, "subblock-8"},
      {DetectorKind::kPerfect, 4, "perfect"},
      {DetectorKind::kWarOnly, 4, "waronly-4"},
  };
  const std::uint64_t nseeds = smoke ? 1 : 8;
  std::vector<Job> jobs;
  for (const std::string& wl : paper_benchmarks()) {
    for (const Det& d : kDets) {
      for (std::uint64_t s = seed; s < seed + nseeds; ++s) {
        jobs.push_back({wl + "/" + d.label + "/s" + std::to_string(s), wl,
                        job_config(d.kind, d.nsub, s, 1.0)});
      }
    }
  }
  return jobs;
}

struct WorkloadDef {
  const char* name;
  std::uint64_t default_seed;
  bool sweep;  // cold passes go through a runner::Runner pool
  std::vector<Job> (*jobs)(std::uint64_t seed, bool smoke);
};

constexpr WorkloadDef kWorkloads[] = {
    {"stamp-large", 42, false, stamp_large},
    {"kv-hot-update", 42, false, kv_hot_update},
    {"kv-wide-read", 42, false, kv_wide_read},
    {"paper-sweep", 1, true, paper_sweep},
};

// ---- tracing ----------------------------------------------------------------

/// One closed span of the traced replay; spans nest by time on one track.
struct Span {
  const char* name;  // "<layer>.<call>", or "job"
  std::uint32_t job;
  double t0;
  double t1;
};

/// Splits the host time of each traced Machine::run at every event the
/// simulator emits. A segment belongs to the core whose action ended it
/// (the requester, for conflict instants). A core's pending segments are
/// settled by its next event that closes an attempt: commit, abort or
/// fallback completion; a begin settles them as time outside any attempt.
class HostTimeSink final : public trace::TraceSink {
 public:
  enum Bucket : std::uint8_t {
    kOutside,
    kCommitted,
    kAborted,
    kFallback,
    kBuckets
  };
  static constexpr const char* kBucketSpan[kBuckets] = {
      "sim.outside", "htm.committed", "htm.aborted", "htm.fallback"};

  explicit HostTimeSink(std::vector<Span>& spans) : spans_(spans) {}

  /// Arms the sink for one Machine::run starting at host time `t`; at most
  /// `span_budget` segments of it are kept as spans.
  void start_run(std::uint32_t ncores, std::uint32_t job,
                 std::size_t span_budget, double t) {
    pending_.assign(ncores, Pending{});
    job_ = job;
    budget_ = span_budget;
    last_ = t;
    covered_ = 0.0;
  }

  /// Settles what is still pending as outside-attempt time; returns the
  /// host time of the run that the segments cover.
  double end_run() {
    for (CoreId c = 0; c < pending_.size(); ++c) settle(c, kOutside);
    return covered_;
  }

  void on_event(const trace::TraceEvent& ev) override {
    using K = trace::TraceEventKind;
    ++events[static_cast<std::size_t>(ev.kind)];
    if (ev.kind == K::kCounter || ev.kind == K::kSite) return;
    const double t = now_s();
    const double d = t - last_;
    last_ = t;
    covered_ += d;
    const bool instant = ev.kind == K::kConflict || ev.kind == K::kAvoided;
    const CoreId c = instant && ev.other != kInvalidCore ? ev.other : ev.core;
    if (c >= pending_.size()) {
      host_s[kOutside] += d;
      return;
    }
    pending_[c].s += d;
    if (budget_ > 0) {
      --budget_;
      pending_[c].spans.push_back(spans_.size());
      spans_.push_back({kBucketSpan[kOutside], job_, t - d, t});
    }
    switch (ev.kind) {
      case K::kBegin:
        settle(c, kOutside);
        break;
      case K::kCommit:
        settle(c, kCommitted);
        break;
      case K::kAbort:
        settle(c, kAborted);
        break;
      case K::kFallback:
        settle(c, kFallback);
        break;
      default:
        break;
    }
  }

  std::array<double, kBuckets> host_s{};
  std::array<std::uint64_t, trace::kTraceEventKinds> events{};

 private:
  struct Pending {
    double s = 0.0;
    std::vector<std::size_t> spans;
  };

  void settle(CoreId c, Bucket b) {
    host_s[b] += pending_[c].s;
    pending_[c].s = 0.0;
    for (const std::size_t i : pending_[c].spans) spans_[i].name = kBucketSpan[b];
    pending_[c].spans.clear();
  }

  std::vector<Span>& spans_;
  std::vector<Pending> pending_;
  std::uint32_t job_ = 0;
  std::size_t budget_ = 0;
  double last_ = 0.0;
  double covered_ = 0.0;
};

// ---- one job, executed directly ------------------------------------------

enum Phase { kCtor, kSetup, kRun, kValidate, kSerialize, kPhases };
constexpr const char* kPhaseSpan[kPhases] = {
    "guest.ctor", "workloads.setup", "sim.run", "workloads.validate",
    "stats.serialize"};

struct Executed {
  std::string detector;
  Stats stats;
  std::string blob;   // serialize_stats(stats)
  std::string error;  // exception text or validation failure; empty = ok
  bool threw = false;
  std::uint64_t events = 0;
  std::array<double, kPhases + 1> t{};  // phase boundaries (host seconds)

  [[nodiscard]] double phase_s(int p) const { return t[p + 1] - t[p]; }
};

Executed execute(const Job& job, HostTimeSink* sink, std::size_t span_budget,
                 std::uint32_t job_id) {
  Executed x;
  SimConfig sim = job.cfg.sim;
  sim.seed = job.cfg.params.seed;  // as run_experiment does
  try {
    x.t[kCtor] = now_s();
    Machine m(sim, job.cfg.detector, job.cfg.nsub);
    x.t[kSetup] = now_s();
    if (sink != nullptr) m.add_trace_sink(sink);
    auto wl = make_workload(job.workload);
    wl->setup(m, job.cfg.params);
    x.t[kRun] = now_s();
    if (sink != nullptr) {
      sink->start_run(sim.ncores, job_id, span_budget, x.t[kRun]);
    }
    m.run(job.cfg.max_cycles);
    x.t[kValidate] = now_s();
    x.error = wl->validate(m);
    x.t[kSerialize] = now_s();
    x.blob = serialize_stats(m.stats());
    x.t[kPhases] = now_s();
    x.events = m.kernel().events_processed();
    x.detector = m.detector().name();
    x.stats = m.stats();
  } catch (const std::exception& e) {
    x.error = e.what();
    x.threw = true;
  }
  return x;
}

/// One runner job emulated through the public calls a Runner makes for it:
/// make_job_spec, the job executed directly (pinned to `cpu`, traced into
/// `sink` when given), then ResultCache::store of the ExperimentResult a
/// Runner would build. A job that threw is not stored.
struct StoredJob {
  runner::JobSpec spec;
  Executed x;
  double t_spec = 0.0;   // make_job_spec called
  double t_exec = 0.0;   // make_job_spec returned
  double t_store = 0.0;  // store called
  double t_end = 0.0;    // store returned
};

StoredJob execute_and_store(const Job& job, const runner::ResultCache& cache,
                            int cpu, HostTimeSink* sink,
                            std::size_t span_budget, std::uint32_t job_id) {
  StoredJob s;
  s.t_spec = now_s();
  s.spec = runner::make_job_spec(job.workload, job.cfg);
  s.t_exec = now_s();
  {
    const PinnedTo pinned(cpu);
    s.x = execute(job, sink, span_budget, job_id);
  }
  ExperimentResult r;
  r.workload = job.workload;
  r.detector = s.x.detector;
  r.validation_error = s.x.error;
  r.stats = s.x.stats;
  s.t_store = now_s();
  if (!s.x.threw) cache.store(s.spec, r);
  s.t_end = now_s();
  return s;
}

void add_counts(Stats& into, const Stats& s) {
  into.tx_attempts += s.tx_attempts;
  into.tx_commits += s.tx_commits;
  into.tx_aborts += s.tx_aborts;
  into.fallback_runs += s.fallback_runs;
  into.conflicts_total += s.conflicts_total;
  into.conflicts_false += s.conflicts_false;
  into.false_conflicts_avoided += s.false_conflicts_avoided;
  into.accesses += s.accesses;
  into.l1_hits += s.l1_hits;
  into.l2_hits += s.l2_hits;
  into.l3_hits += s.l3_hits;
  into.mem_fetches += s.mem_fetches;
  into.c2c_transfers += s.c2c_transfers;
  into.probes_sent += s.probes_sent;
  into.piggyback_messages += s.piggyback_messages;
  into.dirty_refetches += s.dirty_refetches;
  into.bus_wait_cycles += s.bus_wait_cycles;
  into.total_cycles += s.total_cycles;
  into.wasted_cycles += s.wasted_cycles;
  into.backoff_cycles += s.backoff_cycles;
  for (std::size_t i = 0; i < s.tx_latency_hist.size(); ++i) {
    into.tx_latency_hist[i] += s.tx_latency_hist[i];
  }
}

// ---- JSON output ------------------------------------------------------------

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fnv_hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// An ordered list of "key": value members.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + jstr(key) + ": " + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A timing's samples with their median, min, max and n.
std::string jtiming(const std::vector<double>& v) {
  JsonObject o;
  o.num("median", median(v));
  o.num("min", v.empty() ? 0.0 : *std::min_element(v.begin(), v.end()));
  o.num("max", v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
  o.num("n", static_cast<double>(v.size()));
  std::string samples;
  for (const double x : v) samples += (samples.empty() ? "" : ", ") + jnum(x);
  o.raw("samples", "[" + samples + "]");
  return o.text();
}

// ---- the benchmark ------------------------------------------------------------

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  bool smoke = false;
  std::string work_dir;
  std::string trace_path;  // non-empty: traced run, Chrome trace goes here
};

/// Per-call host times of a serial replay, one sample per job.
enum Call {
  kCallJobspec,
  kCallCtor,
  kCallSetup,
  kCallRun,
  kCallValidate,
  kCallSerialize,
  kCallStore,
  kCallLoad,
  kCallParse,
  kCalls
};

struct Replay {
  double wall_s = 0.0;
  std::array<std::vector<double>, kCalls> call_s;
  std::uint64_t events = 0;
  std::uint64_t blob_bytes = 0;
  Stats counts;
  // Traced replays only: self time per layer.
  double guest_s = 0.0, workloads_s = 0.0, sim_s = 0.0, htm_s = 0.0,
         stats_s = 0.0, runner_s = 0.0;
};

class Bench {
 public:
  Bench(Options opts, const WorkloadDef& def)
      : opts_(std::move(opts)),
        def_(def),
        seed_(opts_.seed.value_or(def.default_seed)),
        jobs_(def.jobs(seed_, opts_.smoke)),
        golden_jobs_(def.jobs(def.default_seed, /*smoke=*/true)),
        warm_passes_(opts_.smoke ? 5 : 50),
        cpus_(allowed_cpus()),
        workers_(static_cast<unsigned>(
            std::clamp<std::size_t>(cpus_.size(), 1, 4))),
        job_s_(jobs_.size()),
        job_run_s_(jobs_.size()) {}

  int run() {
    const bool traced = !opts_.trace_path.empty();
    const double calib_before = calib_ns();
    // Set-up first, while no runner thread has touched the allocator yet.
    std::vector<double> setup_s;
    for (int i = 0; !traced && i < kSetupReps; ++i) {
      setup_s.push_back(setup_only_pass(i));
    }
    golden_pass();

    // Measured passes: at least kMinPasses, as many as fit in --seconds. A
    // traced run needs one, for the runner-side counts.
    const double t0 = now_s();
    do {
      measured_pass();
    } while (!traced &&
             (pass_s_.size() < kMinPasses || now_s() - t0 < opts_.seconds));
    const double peak_rss_mb = peak_rss_kb() / 1024.0;

    JsonObject per_layer;
    if (traced) per_layer_metrics(per_layer);
    const double calib_after = calib_ns();
    per_layer.num("host.calib_ns", calib_before);
    fs::remove_all(opts_.work_dir);

    // Each serial job's fastest run, and the fastest warm pass: serial jobs
    // ran once on each CPU in turn, so a neighbour loading some CPUs of a
    // shared host for a while does not move the result. The sweep's pool
    // cannot be pinned; its wall_s is the fastest whole cold pass, Runner
    // construction to destruction, so submission, dispatch, load imbalance
    // and the manifest write all count.
    double best_s = 0.0, best_run_s = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      best_s += min_of(job_s_[j]);
      best_run_s += min_of(def_.sweep ? job_s_[j] : job_run_s_[j]);
    }
    const double wall_s = def_.sweep ? min_of(pass_s_) : best_s;
    JsonObject e2e;
    e2e.num("sim_cycles_per_host_s", ratio(static_cast<double>(cycles_),
                                           best_run_s))
        .num("wall_s", wall_s)
        .num("setup_s", median(setup_s))
        .num("warm_s", warm_passes_ * min_of(warm_pass_s_))
        .num("peak_rss_mb", peak_rss_mb);
    JsonObject timings;
    timings.raw("pass_s", jtiming(pass_s_))
        .raw("setup_s", jtiming(setup_s))
        .raw("warm_pass_s", jtiming(warm_pass_s_));

    std::string failures;
    for (const std::string& f : failures_) {
      failures += (failures.empty() ? "" : ", ") + jstr(f);
    }
    JsonObject out;
    out.str("workload", def_.name)
        .num("seed", static_cast<double>(seed_))
        .num("default_seed", static_cast<double>(def_.default_seed))
        .num("jobs", static_cast<double>(jobs_.size()))
        .num("workers", def_.sweep ? workers_ : 1)
        .num("cpus", static_cast<double>(cpus_.size()))
        .num("passes", static_cast<double>(pass_s_.size()))
        .num("attempted", static_cast<double>(attempted_))
        .raw("failures", "[" + failures + "]")
        .raw("golden", golden_json_)
        .raw("measured", measured_json_)
        .raw("end_to_end", e2e.text())
        .raw("timings", timings.text())
        .raw("per_layer", per_layer.text())
        .raw("calib_ns", "[" + jnum(calib_before) + ", " + jnum(calib_after) +
                             "]");
    std::printf("%s\n", out.text().c_str());
    return 0;
  }

 private:
  static constexpr std::size_t kMinPasses = 4;
  static constexpr int kSetupReps = 8;

  static double min_of(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  }

  /// The CPU of a rotation over the allowed ones (-1: mask unreadable).
  int cpu(std::size_t turn) const {
    return cpus_.empty() ? -1 : cpus_[turn % cpus_.size()];
  }

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
  }

  /// Checks one job result; returns its stats-blob FNV (0 when it failed).
  std::uint64_t check_job(const Job& job, const std::string& blob,
                          const std::string& error, const char* where) {
    check(error.empty(), std::string(where) + " " + job.name + ": " + error);
    return error.empty() ? runner::fnv1a64(blob) : 0;
  }

  /// Compares a pass's FNVs with the first measured pass: the same inputs
  /// must give byte-identical stats on every pass, traced or not.
  void check_same(const std::vector<std::uint64_t>& fnv, const char* where) {
    if (measured_fnv_.empty()) {
      measured_fnv_ = fnv;
      return;
    }
    for (std::size_t i = 0; i < fnv.size(); ++i) {
      if (fnv[i] == 0) continue;  // the job failed, and counted, already
      check(fnv[i] == measured_fnv_[i],
            std::string(where) + " " + jobs_[i].name +
                ": stats blob differs from the first pass");
    }
  }

  std::string fresh_dir(const std::string& name) {
    const fs::path dir = fs::path(opts_.work_dir) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  struct RunnerPass {
    double wall_s = 0.0;
    runner::RunnerTotals totals;
    std::vector<std::shared_future<ExperimentResult>> results;
  };

  /// Submits every job to a fresh Runner and waits for all of them; the
  /// time covers construction through destruction (pool drain, manifest).
  RunnerPass runner_pass(const std::vector<Job>& jobs,
                         const std::string& cache_dir,
                         const std::string& manifest) const {
    runner::RunnerOptions o;
    o.jobs = workers_;
    o.cache_dir = cache_dir;
    o.manifest_path = manifest.empty() ? "-" : manifest;
    o.progress = runner::RunnerOptions::Progress::kOff;
    RunnerPass p;
    p.results.reserve(jobs.size());
    const double t0 = now_s();
    {
      runner::Runner r(o);
      for (const Job& j : jobs) p.results.push_back(r.submit(j.workload, j.cfg));
      for (const auto& f : p.results) f.wait();
      p.totals = r.totals();
    }
    p.wall_s = now_s() - t0;
    return p;
  }

  /// One results row: name, stats-blob FNV, sim_cycles, tx_commits, error.
  static std::string result_row(const Job& job, std::uint64_t fnv,
                                const Stats& s, const std::string& error) {
    JsonObject o;
    o.str("name", job.name)
        .str("fnv", fnv_hex(fnv))
        .num("sim_cycles", static_cast<double>(s.total_cycles))
        .num("tx_commits", static_cast<double>(s.tx_commits))
        .str("error", error);
    return o.text();
  }

  /// Checks each job of a runner pass; returns the FNVs and appends a
  /// result row per job to `rows` when given.
  std::vector<std::uint64_t> check_runner_pass(const std::vector<Job>& jobs,
                                               const RunnerPass& p,
                                               const char* where,
                                               std::string* rows = nullptr) {
    std::vector<std::uint64_t> fnv;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::string row;
      try {
        const ExperimentResult& r = p.results[i].get();
        fnv.push_back(check_job(jobs[i], serialize_stats(r.stats),
                                r.validation_error, where));
        row = result_row(jobs[i], fnv.back(), r.stats, r.validation_error);
      } catch (const std::exception& e) {
        fnv.push_back(check_job(jobs[i], {}, e.what(), where));
        row = result_row(jobs[i], 0, Stats{}, e.what());
      }
      if (rows != nullptr) *rows += (rows->empty() ? "" : ", ") + row;
    }
    return fnv;
  }

  /// Untimed warm-up: the smoke-size jobs at the default seeds, whose FNVs
  /// benchmark/goldens.json pins whatever seed the measured passes use.
  void golden_pass() {
    std::string rows;
    if (def_.sweep) {
      const RunnerPass p =
          runner_pass(golden_jobs_, fresh_dir("golden"), std::string());
      check_runner_pass(golden_jobs_, p, "golden", &rows);
    } else {
      for (const Job& job : golden_jobs_) {
        const Executed x = execute(job, nullptr, 0, 0);
        const std::uint64_t fnv = check_job(job, x.blob, x.error, "golden");
        rows += (rows.empty() ? "" : ", ") +
                result_row(job, fnv, x.stats, x.error);
      }
    }
    golden_json_ = "[" + rows + "]";
  }

  /// One cold pass followed by the warm passes over the result cache it
  /// leaves behind. Serial jobs run pinned, each pass shifting every job
  /// to the next CPU.
  void measured_pass() {
    const std::size_t pass = pass_s_.size();
    const std::string dir = fresh_dir("pass");
    const std::string cache_dir = dir + "/cache";
    std::vector<std::uint64_t> fnv;
    std::string rows;
    if (def_.sweep) {
      const std::string manifest = dir + "/manifest.json";
      const RunnerPass p = runner_pass(jobs_, cache_dir, manifest);
      fnv = check_runner_pass(jobs_, p, "cold", &rows);
      check(p.totals.executed == jobs_.size(),
            "cold: runner executed " + std::to_string(p.totals.executed) +
                " of " + std::to_string(jobs_.size()) + " jobs");
      job_ms_ = manifest_job_ms(manifest);
      check(job_ms_.size() == jobs_.size(),
            "cold: manifest lists " + std::to_string(job_ms_.size()) +
                " jobs");
      double busy_s = 0.0;
      for (std::size_t j = 0; j < job_ms_.size() && j < jobs_.size(); ++j) {
        job_s_[j].push_back(job_ms_[j] / 1e3);
        busy_s += job_ms_[j] / 1e3;
      }
      if (pass == 0) {
        for (const auto& f : p.results) {
          try {
            cycles_ += f.get().stats.total_cycles;
          } catch (const std::exception&) {
          }
        }
      }
      pass_s_.push_back(p.wall_s);
      pool_busy_ = ratio(busy_s, workers_ * p.wall_s);
      executed_ = p.totals.executed;
    } else {
      std::vector<StoredJob> done;
      const runner::ResultCache cache(cache_dir);
      const double t0 = now_s();
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        done.push_back(
            execute_and_store(jobs_[j], cache, cpu(j + pass), nullptr, 0, 0));
      }
      const double wall = now_s() - t0;
      double run_s = 0.0;
      job_ms_.clear();
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const Executed& x = done[j].x;
        fnv.push_back(check_job(jobs_[j], x.blob, x.error, "cold"));
        rows += (rows.empty() ? "" : ", ") +
                result_row(jobs_[j], fnv.back(), x.stats, x.error);
        if (x.threw) continue;
        job_s_[j].push_back(x.t[kPhases] - x.t[kCtor]);
        job_run_s_[j].push_back(x.phase_s(kRun));
        job_ms_.push_back(job_s_[j].back() * 1e3);
        run_s += x.phase_s(kRun);
        if (pass == 0) cycles_ += x.stats.total_cycles;
      }
      pass_s_.push_back(wall);
      pool_busy_ = ratio(run_s, wall);
      executed_ = 0;  // the serial cells bypass the runner
    }
    if (pass == 0) measured_json_ = "[" + rows + "]";
    check_same(fnv, "cold");

    cache_hits_ = 0;
    for (int w = 0; w < warm_passes_; ++w) {
      const RunnerPass p = runner_pass(jobs_, cache_dir, std::string());
      warm_pass_s_.push_back(p.wall_s);
      cache_hits_ += p.totals.cache_hits;
      check(p.totals.executed == 0 && p.totals.cache_hits == jobs_.size(),
            "warm: runner executed " + std::to_string(p.totals.executed) +
                " and hit " + std::to_string(p.totals.cache_hits) + " of " +
                std::to_string(jobs_.size()) + " jobs");
      if (w == 0 || w + 1 == warm_passes_) {
        check_same(check_runner_pass(jobs_, p, "warm"), "warm");
      }
    }
    fs::remove_all(dir);
  }

  /// Per-job wall times the runner recorded in its manifest, in ms and in
  /// submission order.
  static std::vector<double> manifest_job_ms(const std::string& path) {
    std::vector<double> ms;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t at = line.find("\"wall_ms\": ");
      if (at != std::string::npos) {
        ms.push_back(std::strtod(line.c_str() + at + 11, nullptr));
      }
    }
    return ms;
  }

  /// Host time to construct every job's Machine and set its workload up,
  /// pinned to the `rep`-th CPU of the rotation.
  double setup_only_pass(int rep) {
    const PinnedTo pinned(cpu(static_cast<std::size_t>(rep)));
    double total = 0.0;
    for (const Job& job : jobs_) {
      SimConfig sim = job.cfg.sim;
      sim.seed = job.cfg.params.seed;
      try {
        const double t0 = now_s();
        Machine m(sim, job.cfg.detector, job.cfg.nsub);
        auto wl = make_workload(job.workload);
        wl->setup(m, job.cfg.params);
        total += now_s() - t0;
      } catch (const std::exception& e) {
        check(false, "setup " + job.name + ": " + e.what());
      }
    }
    return total;
  }

  /// Every job serially through the public calls of one runner job:
  /// jobspec, ctor, setup, run, validate, serialize, store, load, parse.
  /// With `spans`, the replay is traced and self times are filled in.
  Replay replay(std::vector<Span>* spans) {
    Replay rp;
    std::optional<HostTimeSink> sink;
    if (spans != nullptr) sink.emplace(*spans);
    const std::size_t span_budget =
        std::max<std::size_t>(64, 50000 / jobs_.size());
    const runner::ResultCache cache(
        fresh_dir(spans != nullptr ? "replay-traced" : "replay"));
    std::vector<std::uint64_t> fnv;
    double run_covered_s = 0.0;
    const double t_pass = now_s();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& job = jobs_[i];
      const auto id = static_cast<std::uint32_t>(i);
      const StoredJob done = execute_and_store(
          job, cache, -1, sink ? &*sink : nullptr, span_budget, id);
      const Executed& x = done.x;
      const char* where = spans != nullptr ? "traced" : "replay";
      fnv.push_back(check_job(job, x.blob, x.error, where));
      if (x.threw) continue;
      const double t0 = done.t_spec, t1 = done.t_exec, t2 = done.t_store,
                   t3 = now_s();
      const std::optional<ExperimentResult> loaded = cache.load(done.spec);
      const double t4 = now_s();
      Stats parsed;
      const bool parsed_ok = deserialize_stats(x.blob, parsed);
      const double t5 = now_s();
      if (sink) run_covered_s += sink->end_run();

      check(loaded.has_value() && parsed_ok &&
                serialize_stats(loaded->stats) == x.blob &&
                serialize_stats(parsed) == x.blob,
            std::string(where) + " " + job.name +
                ": stats blob does not round-trip through the cache");
      add_counts(rp.counts, x.stats);
      rp.events += x.events;
      rp.blob_bytes += x.blob.size();
      const double call_s[kCalls] = {t1 - t0,         x.phase_s(kCtor),
                                     x.phase_s(kSetup), x.phase_s(kRun),
                                     x.phase_s(kValidate),
                                     x.phase_s(kSerialize),
                                     done.t_end - t2, t4 - t3,
                                     t5 - t4};
      for (int c = 0; c < kCalls; ++c) rp.call_s[c].push_back(call_s[c]);
      const double t_end = now_s();
      if (spans != nullptr) {
        spans->push_back({"job", id, t0, t_end});
        spans->push_back({"runner.jobspec", id, t0, t1});
        for (int p = 0; p < kPhases; ++p) {
          spans->push_back({kPhaseSpan[p], id, x.t[p], x.t[p + 1]});
        }
        spans->push_back({"runner.store", id, t2, done.t_end});
        spans->push_back({"runner.load", id, t3, t4});
        spans->push_back({"stats.parse", id, t4, t5});
      }
    }
    rp.wall_s = now_s() - t_pass;
    check_same(fnv, spans != nullptr ? "traced" : "replay");

    if (sink) {
      auto sum = [&rp](std::initializer_list<Call> calls) {
        double s = 0.0;
        for (const Call c : calls) {
          for (const double v : rp.call_s[c]) s += v;
        }
        return s;
      };
      rp.guest_s = sum({kCallCtor});
      rp.workloads_s = sum({kCallSetup, kCallValidate});
      rp.stats_s = sum({kCallSerialize, kCallParse});
      rp.runner_s = sum({kCallJobspec, kCallStore, kCallLoad});
      rp.htm_s = sink->host_s[HostTimeSink::kCommitted] +
                 sink->host_s[HostTimeSink::kAborted] +
                 sink->host_s[HostTimeSink::kFallback];
      rp.sim_s = sum({kCallRun}) - run_covered_s +
                 sink->host_s[HostTimeSink::kOutside];
      htm_split_ = sink->host_s;
      trace_events_ = sink->events;
    }
    return rp;
  }

  void per_layer_metrics(JsonObject& o) {
    const Replay plain = replay(nullptr);
    std::vector<Span> spans;
    const double t_origin = now_s();
    const Replay traced = replay(&spans);
    write_chrome_trace(spans, t_origin);

    auto med_ms = [](const std::vector<double>& v) { return median(v) * 1e3; };
    auto med_us = [](const std::vector<double>& v) { return median(v) * 1e6; };
    const Stats& s = plain.counts;
    double run_s = 0.0, traced_run_s = 0.0;
    for (const double v : plain.call_s[kCallRun]) run_s += v;
    for (const double v : traced.call_s[kCallRun]) traced_run_s += v;

    o.num("sim.events", static_cast<double>(plain.events))
        .num("sim.cycles", static_cast<double>(s.total_cycles))
        .num("sim.host_ns_per_event",
             ratio(run_s * 1e9, static_cast<double>(plain.events)))
        .num("sim.self_s", traced.sim_s)
        .num("guest.machine_ctor_ms", med_ms(plain.call_s[kCallCtor]))
        .num("guest.self_s", traced.guest_s)
        .num("workloads.setup_ms", med_ms(plain.call_s[kCallSetup]))
        .num("workloads.validate_ms", med_ms(plain.call_s[kCallValidate]))
        .num("workloads.self_s", traced.workloads_s)
        .num("mem.accesses", static_cast<double>(s.accesses))
        .num("mem.l1_hit_ratio", ratio(s.l1_hits, s.accesses))
        .num("mem.l2_hits", static_cast<double>(s.l2_hits))
        .num("mem.l3_hits", static_cast<double>(s.l3_hits))
        .num("mem.mem_fetches", static_cast<double>(s.mem_fetches))
        .num("mem.probes_sent", static_cast<double>(s.probes_sent))
        .num("mem.c2c_transfers", static_cast<double>(s.c2c_transfers))
        .num("mem.bus_wait_cycles", static_cast<double>(s.bus_wait_cycles))
        .num("core.conflicts", static_cast<double>(s.conflicts_total))
        .num("core.false_conflicts", static_cast<double>(s.conflicts_false))
        .num("core.false_conflict_rate", s.false_conflict_rate())
        .num("core.avoided", static_cast<double>(s.false_conflicts_avoided))
        .num("core.piggyback_messages",
             static_cast<double>(s.piggyback_messages))
        .num("core.dirty_refetches", static_cast<double>(s.dirty_refetches))
        .num("htm.attempts", static_cast<double>(s.tx_attempts))
        .num("htm.commits", static_cast<double>(s.tx_commits))
        .num("htm.aborts", static_cast<double>(s.tx_aborts))
        .num("htm.commit_ratio", ratio(s.tx_commits, s.tx_attempts))
        .num("htm.fallback_runs", static_cast<double>(s.fallback_runs))
        .num("htm.wasted_cycles", static_cast<double>(s.wasted_cycles))
        .num("htm.backoff_cycles", static_cast<double>(s.backoff_cycles))
        .num("htm.host_s_committed", htm_split_[HostTimeSink::kCommitted])
        .num("htm.host_s_aborted", htm_split_[HostTimeSink::kAborted])
        .num("htm.host_s_fallback", htm_split_[HostTimeSink::kFallback])
        .num("htm.host_us_per_abort",
             ratio(htm_split_[HostTimeSink::kAborted] * 1e6,
                   static_cast<double>(s.tx_aborts)))
        .num("htm.self_s", traced.htm_s)
        .num("oltp.commits_per_simsec", s.commits_per_simsec())
        .num("oltp.latency_p50_cycles", s.latency_percentile(0.50))
        .num("oltp.latency_p99_cycles", s.latency_percentile(0.99))
        .num("stats.serialize_us", med_us(plain.call_s[kCallSerialize]))
        .num("stats.parse_us", med_us(plain.call_s[kCallParse]))
        .num("stats.blob_bytes", ratio(static_cast<double>(plain.blob_bytes),
                                       static_cast<double>(jobs_.size())))
        .num("stats.self_s", traced.stats_s)
        .num("runner.jobspec_us", med_us(plain.call_s[kCallJobspec]))
        .num("runner.store_us", med_us(plain.call_s[kCallStore]))
        .num("runner.load_us", med_us(plain.call_s[kCallLoad]))
        .num("runner.job_ms_p50", percentile(job_ms_, 0.50))
        .num("runner.job_ms_p95", percentile(job_ms_, 0.95))
        .num("runner.pool_busy_ratio", pool_busy_)
        .num("runner.executed", static_cast<double>(executed_))
        .num("runner.cache_hits", static_cast<double>(cache_hits_))
        .num("runner.self_s", traced.runner_s);
    for (std::size_t k = 0; k < trace::kTraceEventKinds; ++k) {
      const auto kind = static_cast<trace::TraceEventKind>(k);
      if (kind == trace::TraceEventKind::kSite ||
          kind == trace::TraceEventKind::kPolicy ||
          kind == trace::TraceEventKind::kFallbackAcquired) {
        continue;  // provenance and contention management are off here
      }
      o.num(std::string("trace.events.") + trace::to_string(kind),
            static_cast<double>(trace_events_[k]));
    }
    const double library_s = traced.guest_s + traced.workloads_s +
                             traced.sim_s + traced.htm_s + traced.stats_s +
                             traced.runner_s;
    o.num("trace.overhead_ratio", ratio(traced_run_s, run_s))
        .num("trace.self_coverage", ratio(library_s, traced.wall_s));
  }

  /// Chrome trace-event JSON (loads in Perfetto): one track, spans nested by
  /// time, the spans of one job sharing args.job.
  void write_chrome_trace(const std::vector<Span>& spans, double origin) {
    const fs::path path(opts_.trace_path);
    if (path.has_parent_path()) fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
           "\"args\": {\"name\": "
        << jstr(std::string("asfbench ") + def_.name) << "}}";
    char buf[96];
    for (const Span& s : spans) {
      const bool job = std::strcmp(s.name, "job") == 0;
      const char* dot = std::strchr(s.name, '.');
      const std::string cat =
          dot == nullptr ? "driver" : std::string(s.name, dot);
      std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                    (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6);
      out << ",\n{\"name\": " << jstr(job ? jobs_[s.job].name : s.name)
          << ", \"cat\": " << jstr(cat) << ", \"ph\": \"X\", " << buf
          << ", \"pid\": 1, \"tid\": 1, \"args\": {\"job\": " << s.job
          << "}}";
    }
    out << "\n]}\n";
    if (!out) check(false, "cannot write trace " + opts_.trace_path);
  }

  Options opts_;
  const WorkloadDef& def_;
  std::uint64_t seed_;
  std::vector<Job> jobs_;
  std::vector<Job> golden_jobs_;
  int warm_passes_;
  std::vector<int> cpus_;
  unsigned workers_;  // of the sweep's runner pool

  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::string golden_json_ = "[]";
  std::string measured_json_ = "[]";
  std::vector<std::uint64_t> measured_fnv_;

  // Samples of the measured passes.
  std::vector<double> pass_s_, warm_pass_s_;
  std::vector<std::vector<double>> job_s_;      // per job: ctor..serialize
  std::vector<std::vector<double>> job_run_s_;  // per job: Machine::run
  Cycle cycles_ = 0;                            // simulated, one pass
  // From the last measured pass.
  std::vector<double> job_ms_;
  double pool_busy_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t cache_hits_ = 0;
  // From the traced replay.
  std::array<double, HostTimeSink::kBuckets> htm_split_{};
  std::array<std::uint64_t, trace::kTraceEventKinds> trace_events_{};
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --work-dir DIR [--seed N] "
               "[--seconds S] [--smoke] [--trace FILE]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (a == "--work-dir" && has_value) {
      opts.work_dir = argv[++i];
    } else if (a == "--trace" && has_value) {
      opts.trace_path = argv[++i];
    } else if (a == "--smoke") {
      opts.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.work_dir.empty()) return usage(argv[0]);
  for (const WorkloadDef& def : kWorkloads) {
    if (opts.workload == def.name) return Bench(opts, def).run();
  }
  std::fprintf(stderr, "asfbench: unknown workload '%s'\n",
               opts.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace asfsim::bench

int main(int argc, char** argv) {
  try {
    return asfsim::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asfbench: %s\n", e.what());
    return 1;
  }
}
