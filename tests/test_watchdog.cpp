// Livelock watchdog, wall-clock budget, runner failure surfacing, and the
// result-cache quarantine path (docs/robustness.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>

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

/// One stored entry whose on-disk bytes a test rewrites before each load:
/// every rewrite must load as a miss that quarantines the file, never as a
/// result.
class StoredEntry {
 public:
  explicit StoredEntry(const char* name)
      : dir_(name),
        cache_(dir_.str()),
        spec_(make_job_spec("counter", small_config())) {
    cache_.store(spec_, run_experiment("counter", spec_.config));
    std::ifstream in(entry_path(dir_, spec_), std::ios::binary);
    pristine_.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  }

  [[nodiscard]] const std::string& pristine() const { return pristine_; }

  /// Writes `bytes` as the entry, loads it, and reports whether the load
  /// missed and moved the file to <hash>.bad.
  testing::AssertionResult quarantines(const std::string& bytes) {
    const std::string path = entry_path(dir_, spec_);
    std::filesystem::remove(bad_path(dir_, spec_));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    if (cache_.load(spec_).has_value()) {
      return testing::AssertionFailure() << "loaded a result";
    }
    if (std::filesystem::exists(path)) {
      return testing::AssertionFailure() << "entry still live";
    }
    if (!std::filesystem::exists(bad_path(dir_, spec_))) {
      return testing::AssertionFailure() << "no .bad copy kept";
    }
    return testing::AssertionSuccess();
  }

  /// The pristine bytes with the "<key> <count>" line that opens section
  /// `key` replaced by `line`.
  [[nodiscard]] std::string with_length_line(const std::string& key,
                                             const std::string& line) const {
    std::string bytes = pristine_;
    const auto [at, len] = length_line(key);
    bytes.replace(at, len, line);
    return bytes;
  }

  /// Offset and size of the "<key> <count>" line opening section `key`,
  /// found by walking the sections (the spec payload holds a "workload"
  /// line of its own).
  [[nodiscard]] std::pair<std::size_t, std::size_t> length_line(
      const std::string& key) const {
    std::size_t at = pristine_.find('\n') + 1;  // past the header
    while (at < pristine_.size()) {
      const std::size_t nl = pristine_.find('\n', at);
      const std::size_t sp = pristine_.find(' ', at);
      if (pristine_.compare(at, sp - at, key) == 0) return {at, nl - at};
      at = nl + 1 + std::stoul(pristine_.substr(sp + 1, nl - sp - 1)) + 1;
    }
    ADD_FAILURE() << "no section " << key;
    return {0, 0};
  }

 private:
  TempDir dir_;
  ResultCache cache_;
  JobSpec spec_;
  std::string pristine_;
};

constexpr const char* kSections[] = {"spec", "workload", "detector",
                                     "validation_error", "stats"};

TEST(CacheQuarantine, EveryTruncationLengthIsQuarantined) {
  StoredEntry entry("truncations");
  const std::string& full = entry.pristine();
  ASSERT_GT(full.size(), 1000u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_TRUE(entry.quarantines(full.substr(0, len))) << "length " << len;
  }
}

TEST(CacheQuarantine, SectionLengthPastTheFileIsQuarantined) {
  StoredEntry entry("long_length");
  const std::string size = std::to_string(entry.pristine().size());
  for (const std::string key : kSections) {
    for (const std::string n :
         {size.c_str(), "99999999",
          "18446744073709551616",     // 2^64: wraps if unchecked
          "36893488147419103232"}) {  // 2^65
      EXPECT_TRUE(entry.quarantines(entry.with_length_line(key, key + " " + n)))
          << key << " " << n;
    }
  }
}

TEST(CacheQuarantine, NonDigitOrEmptyLengthIsQuarantined) {
  StoredEntry entry("bad_length");
  for (const std::string key : kSections) {
    for (const std::string n :
         {"", "x", "-1", "+7", " 7", "7 ", "0x10", "1e3"}) {
      EXPECT_TRUE(entry.quarantines(entry.with_length_line(key, key + " " + n)))
          << key << " '" << n << "'";
    }
  }
}

TEST(CacheQuarantine, WrongSectionKeyIsQuarantined) {
  StoredEntry entry("bad_key");
  for (const std::string key : kSections) {
    const auto [at, len] = entry.length_line(key);
    const std::string line = entry.pristine().substr(at, len);
    const std::string count = line.substr(key.size());  // " <count>"
    const std::string other = key == "spec" ? "stats" : "spec";
    for (const std::string& wrong : {key + "x", key.substr(1), other}) {
      EXPECT_TRUE(entry.quarantines(entry.with_length_line(key, wrong + count)))
          << key << " -> " << wrong;
    }
  }
  std::string header = entry.pristine();
  header[header.find('\n') - 1] = '2';  // "asfsim-cache v2"
  EXPECT_TRUE(entry.quarantines(header));
}

TEST(CacheQuarantine, StoredEntryLoadsBackFieldEqual) {
  TempDir dir("field_equal");
  ResultCache cache(dir.str());
  ExperimentConfig cfg = small_config();
  cfg.timeseries = true;  // non-empty vector fields
  const JobSpec spec = make_job_spec("counter", cfg);
  ExperimentResult stored = run_experiment("counter", spec.config);
  // Raw payloads may hold anything, section syntax included.
  stored.validation_error = "two\nlines\nstats 3\n\x01";
  cache.store(spec, stored);

  const auto loaded = cache.load(spec);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->workload, stored.workload);
  EXPECT_EQ(loaded->detector, stored.detector);
  EXPECT_EQ(loaded->validation_error, stored.validation_error);
  const auto same = [&](const auto& f) {
    EXPECT_EQ(loaded->stats.*f.member, stored.stats.*f.member) << f.info.key;
  };
  std::apply([&](const auto&... f) { (same(f), ...); },
             FieldTable<Stats>::fields);
}

}  // namespace
}  // namespace asfsim
