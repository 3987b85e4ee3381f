// Experiment runner: parallel job execution + content-addressed caching.
//
// The figure harness (src/harness/figures.cpp) submits (workload × config)
// jobs here instead of looping over run_experiment inline. Three layers
// fold away repeated work:
//
//   1. in-process dedup — identical specs submitted twice share one future
//      (fig8 re-running each baseline per sub-block count costs nothing),
//      keyed by the exact binary job_key so that the canonical spec text
//      is only built on a worker;
//   2. on-disk result cache — identical specs across *processes* reuse the
//      stored result (fig9 reuses fig1's baseline runs; a warm re-run of
//      scripts/reproduce_all.sh executes zero simulations);
//   3. a fixed-size thread pool — cache misses execute concurrently.
//
// Each simulation stays single-threaded and deterministic, so results are
// byte-identical regardless of --jobs, ordering, or cache state; output
// code consumes futures in submission order and prints the same bytes the
// serial harness did. Per-job wall time and provenance (executed / cache /
// deduped) land in a machine-readable JSON manifest for CI and the
// repository benchmark. See docs/runner.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/job_spec.hpp"
#include "runner/result_cache.hpp"
#include "runner/thread_pool.hpp"

namespace asfsim::runner {

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned jobs = 0;
  bool use_cache = true;
  /// Cache root; empty = ResultCache::default_dir().
  std::string cache_dir;
  /// Manifest output; empty = <cache_dir>/last_run_manifest.json,
  /// "-" disables. $ASFSIM_RUN_MANIFEST overrides when set.
  std::string manifest_path;
  /// Progress/ETA line on stderr; default auto (only when stderr is a
  /// TTY).
  enum class Progress : std::uint8_t { kAuto, kOff };
  Progress progress = Progress::kAuto;
  /// When non-empty, every *executed* job streams its full event timeline
  /// to <trace_dir>/<workload>-<hash>.<ext>. Cache *loads* are skipped for
  /// traced jobs (a cached result has no timeline to replay) but results
  /// are still stored; stats stay byte-identical either way.
  std::string trace_dir;
  TraceFormat trace_format = TraceFormat::kJsonl;
};

/// Wraps any exception escaping a job with its (workload, detector, seed)
/// identity, so a failure in a 500-job sweep names the cell that died.
struct JobError : std::runtime_error {
  JobError(std::string wl, std::string det, std::uint64_t sd,
           const std::string& reason)
      : std::runtime_error("job " + wl + " [" + det + "] seed " +
                           std::to_string(sd) + ": " + reason),
        workload(std::move(wl)),
        detector(std::move(det)),
        seed(sd) {}

  std::string workload;
  std::string detector;
  std::uint64_t seed = 0;
};

/// Aggregate counters, readable at any time (consistent snapshot).
struct RunnerTotals {
  std::uint64_t submitted = 0;   // distinct specs accepted
  std::uint64_t deduped = 0;     // submits folded into an in-flight job
  std::uint64_t executed = 0;    // simulations actually run
  std::uint64_t cache_hits = 0;  // results served from the on-disk cache
};

class Runner {
 public:
  explicit Runner(RunnerOptions opts);
  /// Waits for all submitted jobs, then writes the manifest.
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Start (or join) the job for this spec. Never blocks on simulation.
  std::shared_future<ExperimentResult> submit(const std::string& workload,
                                              const ExperimentConfig& cfg);

  /// submit() + wait. A spec already submitted returns its memoized
  /// result, so "submit everything, then get() in print order" costs one
  /// simulation per distinct spec. Simulator-level failures rethrow as
  /// JobError carrying the (workload, detector, seed) identity.
  ExperimentResult get(const std::string& workload,
                       const ExperimentConfig& cfg);

  [[nodiscard]] RunnerTotals totals() const;
  [[nodiscard]] unsigned jobs() const { return jobs_; }

 private:
  struct ManifestEntry {
    std::string hash_hex;  // set by the worker before the job runs
    std::string workload;
    std::string detector;  // DetectorKind name + nsub at submit time
    std::uint64_t seed = 0;
    const char* policy = "requester-wins";  // contention policy name
    std::uint32_t cm_max_retries = 0;  // serialize threshold (0 otherwise)
    const char* source = "pending";  // executed | cache | failed
    double wall_ms = 0.0;
    std::string trace;  // trace file path (empty when tracing is off)
    std::string error;  // exception text for failed jobs (first line; any
                        // further lines land in the "diagnostic" array)
    FaultCounters fault_counters;  // executed fault-injected jobs only
    bool has_fault_counters = false;
  };

  ExperimentResult run_one(const JobSpec& spec, std::size_t entry_index);
  void job_finished(std::size_t entry_index, const char* source,
                    double wall_ms, std::string trace_path = {},
                    std::string error = {},
                    const FaultCounters* fault_counters = nullptr);
  void print_progress_locked();
  void write_manifest();

  RunnerOptions opts_;
  ResultCache cache_;
  unsigned jobs_ = 1;                 // resolved worker count
  std::unique_ptr<ThreadPool> pool_;  // destroyed first in ~Runner (drain)

  mutable std::mutex mu_;
  /// Keyed by job_key; the worker builds the spec (and its hash) itself.
  std::map<std::string, std::shared_future<ExperimentResult>> inflight_;
  std::vector<ManifestEntry> entries_;  // submission order
  RunnerTotals totals_;
  std::uint64_t completed_ = 0;
  bool progress_enabled_ = false;
  bool progress_dirty_ = false;  // a \r progress line needs a final \n
  std::chrono::steady_clock::time_point start_;
};

}  // namespace asfsim::runner
