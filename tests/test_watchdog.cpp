// Livelock watchdog, wall-clock budget, runner failure surfacing, and the
// result-cache quarantine path (docs/robustness.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "fault/watchdog.hpp"
#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "runner/result_cache.hpp"
#include "runner/runner.hpp"
#include "runner/version.hpp"
#include "sim/kernel.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

using runner::JobError;
using runner::JobSpec;
using runner::make_job_spec;
using runner::ResultCache;
using runner::Runner;
using runner::RunnerOptions;

/// A config that cannot make forward progress: the counter workload's
/// shared state overflows a 256-byte direct-mapped L1, every transaction
/// capacity-aborts, and with the fallback disabled the retry loop spins
/// until the watchdog ends it.
ExperimentConfig livelocked_config() {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.nsub = 4;
  cfg.sim.l1.size_bytes = 256;
  cfg.sim.l1.ways = 1;
  cfg.sim.max_tx_retries = 0;  // never fall back to the lock
  cfg.sim.backoff_cap_shift = 2;
  cfg.sim.watchdog_cycles = 200'000;
  cfg.params.threads = 4;
  cfg.params.seed = 7;
  return cfg;
}

TEST(Watchdog, LivelockedRunTerminatesWithDiagnosticDump) {
  try {
    (void)run_experiment("counter", livelocked_config());
    FAIL() << "livelocked run completed";
  } catch (const LivelockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no commit progress"), std::string::npos) << what;
    EXPECT_NE(what.find("=== livelock diagnostic ==="), std::string::npos);
    EXPECT_NE(what.find("capacity"), std::string::npos);  // the abort cause
    EXPECT_NE(what.find("core 0:"), std::string::npos);   // per-core lines
  }
}

TEST(Watchdog, QuietWatchdogNeverFiresOnAHealthyRun) {
  ExperimentConfig cfg;
  cfg.sim.watchdog_cycles = 1'000'000;  // generous: commits happen long before
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  const ExperimentResult r = run_experiment("counter", cfg);
  EXPECT_TRUE(r.ok()) << r.validation_error;
  // And the watchdog config must not perturb the simulation itself.
  ExperimentConfig plain = cfg;
  plain.sim.watchdog_cycles = 0;
  EXPECT_EQ(serialize_stats(r.stats),
            serialize_stats(run_experiment("counter", plain).stats));
}

TEST(Watchdog, LivelockWorkloadCompletesUnderDefaultConfig) {
  // The conflict-flavored demo workload: a single hot cell hammered by all
  // threads. Backoff + fallback keep it live under the default config.
  ExperimentConfig cfg;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  cfg.sim.watchdog_cycles = 5'000'000;
  const ExperimentResult r = run_experiment("livelock", cfg);
  EXPECT_TRUE(r.ok()) << r.validation_error;
  EXPECT_GT(r.stats.tx_commits, 0u);
}

TEST(WallClock, TinyBudgetAbortsTheRun) {
  ExperimentConfig cfg;
  cfg.wall_limit_s = 1e-9;  // fires at the first check
  EXPECT_THROW((void)run_experiment("counter", cfg), WallClockError);
}

TEST(WallClock, GenerousBudgetIsInvisible) {
  ExperimentConfig small;
  small.params.threads = 4;
  small.params.scale = 0.25;
  small.sim.ncores = 4;
  ExperimentConfig budgeted = small;
  budgeted.wall_limit_s = 3600.0;
  EXPECT_EQ(serialize_stats(run_experiment("counter", budgeted).stats),
            serialize_stats(run_experiment("counter", small).stats));
}

// ---- runner failure surfacing ----------------------------------------------

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_(std::filesystem::path("watchdog_test_tmp") / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(RunnerFailures, GetRethrowsWithJobContext) {
  TempDir dir("jobcontext");
  RunnerOptions opts;
  opts.jobs = 2;
  opts.use_cache = false;
  opts.cache_dir = dir.str();
  opts.manifest_path = "-";
  opts.progress = RunnerOptions::Progress::kOff;
  Runner r(opts);
  try {
    (void)r.get("counter", livelocked_config());
    FAIL() << "livelocked job returned a result";
  } catch (const JobError& e) {
    EXPECT_EQ(e.workload, "counter");
    EXPECT_EQ(e.detector, "subblock/4");
    EXPECT_EQ(e.seed, 7u);
    const std::string what = e.what();
    EXPECT_NE(what.find("job counter [subblock/4] seed 7:"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("livelock"), std::string::npos) << what;
  }
}

TEST(RunnerFailures, ManifestRecordsFailedJobsWithTheError) {
  TempDir dir("manifest");
  const std::string manifest = dir.str() + "/manifest.json";
  {
    RunnerOptions opts;
    opts.jobs = 2;
    opts.use_cache = false;
    opts.cache_dir = dir.str();
    opts.manifest_path = manifest;
    opts.progress = RunnerOptions::Progress::kOff;
    Runner r(opts);
    EXPECT_THROW((void)r.get("counter", livelocked_config()), JobError);
    ExperimentConfig ok_cfg;
    ok_cfg.params.threads = 4;
    ok_cfg.params.scale = 0.25;
    ok_cfg.sim.ncores = 4;
    (void)r.get("counter", ok_cfg);
  }
  std::ifstream in(manifest);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"status\": \"failed\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"status\": \"ok\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"error\": \""), std::string::npos) << text;
  EXPECT_NE(text.find("no commit progress"), std::string::npos) << text;
}

TEST(RunnerFailures, RunnerWideWallLimitAppliesToJobs) {
  TempDir dir("walllimit");
  RunnerOptions opts;
  opts.jobs = 1;
  opts.use_cache = false;
  opts.cache_dir = dir.str();
  opts.manifest_path = "-";
  opts.progress = RunnerOptions::Progress::kOff;
  Runner r(opts);
  // --job-timeout reaches every job as its wall_limit_s.
  CliOptions cli;
  cli.job_timeout = 1e-9;
  const ExperimentConfig cfg = experiment_config(cli);
  try {
    (void)r.get("counter", cfg);
    FAIL() << "job ignored the wall limit";
  } catch (const JobError& e) {
    EXPECT_NE(std::string(e.what()).find("wall-clock"), std::string::npos)
        << e.what();
  }
}

// ---- result-cache quarantine -----------------------------------------------

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  return cfg;
}

std::string entry_path(const TempDir& dir, const JobSpec& spec) {
  return dir.str() + "/" + std::string(runner::code_version_stamp()) + "/" +
         spec.hash_hex + ".result";
}

std::string bad_path(const TempDir& dir, const JobSpec& spec) {
  return dir.str() + "/" + std::string(runner::code_version_stamp()) + "/" +
         spec.hash_hex + ".bad";
}

TEST(CacheQuarantine, TruncatedEntryIsQuarantinedAndRecomputable) {
  TempDir dir("truncate");
  ResultCache cache(dir.str());
  const JobSpec spec = make_job_spec("counter", small_config());
  const ExperimentResult computed = run_experiment("counter", spec.config);
  cache.store(spec, computed);

  const std::string path = entry_path(dir, spec);
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);

  EXPECT_FALSE(cache.load(spec).has_value());
  EXPECT_FALSE(std::filesystem::exists(path)) << "poisoned entry still live";
  EXPECT_TRUE(std::filesystem::exists(bad_path(dir, spec)))
      << "corrupt bytes were not kept for triage";

  // The miss recomputes and re-stores; the fresh entry loads cleanly.
  cache.store(spec, computed);
  const auto reloaded = cache.load(spec);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(serialize_stats(reloaded->stats), serialize_stats(computed.stats));
}

TEST(CacheQuarantine, EveryBitFlipIsAMissNeverAWrongResult) {
  TempDir dir("bitflip");
  ResultCache cache(dir.str());
  const JobSpec spec = make_job_spec("counter", small_config());
  const ExperimentResult computed = run_experiment("counter", spec.config);
  cache.store(spec, computed);
  const std::string path = entry_path(dir, spec);

  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  const std::string expect = serialize_stats(computed.stats);

  // Flip one bit at a spread of positions (every 41st byte keeps the test
  // fast while hitting the header, spec text, and stats blob sections).
  for (std::size_t pos = 0; pos < pristine.size(); pos += 41) {
    std::string mutated = pristine;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    std::filesystem::remove(bad_path(dir, spec));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    const auto loaded = cache.load(spec);
    if (loaded.has_value()) {
      // The flip must have landed somewhere the format proves harmless —
      // the loaded stats must still be exactly the stored ones.
      EXPECT_EQ(serialize_stats(loaded->stats), expect) << "pos " << pos;
    } else {
      EXPECT_FALSE(std::filesystem::exists(path)) << "pos " << pos;
    }
  }
}

}  // namespace
}  // namespace asfsim
