// Runner subsystem: JobSpec canonicalization/hashing, Stats serialization
// round trips, and — the stale-result guard — result-cache hit/miss
// behaviour when a SimConfig field changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/job_spec.hpp"
#include "runner/result_cache.hpp"
#include "runner/runner.hpp"
#include "runner/version.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

using runner::JobSpec;
using runner::make_job_spec;
using runner::ResultCache;
using runner::Runner;
using runner::RunnerOptions;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  return cfg;
}

/// Fresh per-test cache directory under the test's CWD.
class TempCacheDir {
 public:
  explicit TempCacheDir(const char* name)
      : path_(std::filesystem::path("runner_test_cache") / name) {
    std::filesystem::remove_all(path_);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

RunnerOptions cached_opts(const TempCacheDir& dir, unsigned jobs = 2) {
  RunnerOptions o;
  o.jobs = jobs;
  o.use_cache = true;
  o.cache_dir = dir.str();
  o.manifest_path = "-";
  o.progress = RunnerOptions::Progress::kOff;
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---- JobSpec ---------------------------------------------------------------

TEST(JobSpec, IdenticalConfigsHashIdentically) {
  const auto a = make_job_spec("counter", small_config());
  const auto b = make_job_spec("counter", small_config());
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash_hex, b.hash_hex);
  EXPECT_EQ(a.hash_hex.size(), 16u);
}

/// Table visitor that perturbs the `target`-th leaf field of a config
/// (depth-first table order) by the smallest step its type allows, and
/// records that leaf's dotted path and role.
struct LeafPerturber {
  std::size_t target;
  std::size_t index = 0;
  std::string prefix{};
  std::string path{};  // empty: fewer than target + 1 leaves
  FieldRole role = FieldRole::kResult;

  template <typename T>
  void operator()(const FieldInfo& f, T& v) {
    if constexpr (Tabled<T>) {
      const std::size_t outer = prefix.size();
      prefix += std::string(f.key) + ".";
      for_each_field(v, *this);
      prefix.resize(outer);
    } else if (index++ == target) {
      path = prefix + f.key;
      role = f.role;
      if constexpr (std::is_same_v<T, bool>) {
        v = !v;
      } else if constexpr (std::is_floating_point_v<T>) {
        v = std::nextafter(v, std::numeric_limits<T>::infinity());
      } else if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
      } else {
        v = static_cast<T>(v + 1);
      }
    }
  }
};

// Table-driven: every results-role leaf of every config record changes the
// hash, the canonical text and the dedup key; every host-only leaf leaves
// all three alone. The base runs a sub-block detector, the only kind whose
// nsub reaches the simulation.
TEST(JobSpec, EveryKnobChangesTheHash) {
  const ExperimentConfig base =
      small_config().with(DetectorKind::kSubBlock, 4);
  const JobSpec base_spec = make_job_spec("counter", base);
  const std::string base_key = runner::job_key("counter", base);
  EXPECT_NE(make_job_spec("bank", base).hash_hex, base_spec.hash_hex);
  EXPECT_NE(runner::job_key("bank", base), base_key);
  EXPECT_NE(runner::job_key("counte", base), base_key);

  std::set<std::string> host_only;
  std::size_t leaves = 0;
  for (;; ++leaves) {
    ExperimentConfig c = base;
    LeafPerturber p{.target = leaves};
    for_each_field(c, p);
    if (p.path.empty()) break;
    const JobSpec spec = make_job_spec("counter", c);
    const std::string key = runner::job_key("counter", c);
    if (p.role == FieldRole::kHostOnly) {
      host_only.insert(p.path);
      EXPECT_EQ(spec.hash_hex, base_spec.hash_hex) << p.path;
      EXPECT_EQ(spec.canonical, base_spec.canonical) << p.path;
      EXPECT_EQ(key, base_key) << p.path;
    } else {
      EXPECT_NE(spec.hash_hex, base_spec.hash_hex) << p.path;
      EXPECT_NE(spec.canonical, base_spec.canonical) << p.path;
      EXPECT_NE(key, base_key) << p.path;
    }
  }
  // The host-side wall-clock budget never changes a result, and
  // run_experiment overwrites sim.seed with params.seed.
  EXPECT_EQ(host_only, (std::set<std::string>{"sim.seed", "wall_limit_s"}));
  // One canonical line per results-role leaf, after the two header lines.
  const auto lines = static_cast<std::size_t>(std::count(
      base_spec.canonical.begin(), base_spec.canonical.end(), '\n'));
  EXPECT_EQ(lines - 2, leaves - host_only.size());
}

TEST(JobSpec, DefaultCanonicalTextIsPinned) {
  const JobSpec spec = make_job_spec("counter", ExperimentConfig{});
  EXPECT_EQ(spec.canonical, R"(asfsim-jobspec v6
workload counter
detector 0
nsub 1
sim.ncores 8
sim.l1.size_bytes 65536
sim.l1.line_bytes 64
sim.l1.ways 2
sim.l1.latency 3
sim.l2.size_bytes 524288
sim.l2.line_bytes 64
sim.l2.ways 16
sim.l2.latency 15
sim.l3.size_bytes 2097152
sim.l3.line_bytes 64
sim.l3.ways 16
sim.l3.latency 50
sim.mem_latency 210
sim.cache2cache_latency 60
sim.upgrade_latency 20
sim.bus_occupancy 4
sim.probe_delay 0
sim.commit_latency 5
sim.abort_latency 50
sim.backoff_base 32
sim.backoff_cap_shift 8
sim.max_tx_retries 24
sim.max_capacity_aborts 3
sim.watchdog_cycles 0
sim.fault.spurious_abort_rate 0x0p+0
sim.fault.commit_abort_rate 0x0p+0
sim.fault.evict_rate 0x0p+0
sim.fault.probe_jitter 0
sim.fault.sched_jitter 0
sim.fault.mutation 0
sim.enable_ats 0
sim.ats_alpha 0x1.3333333333333p-2
sim.ats_threshold 0x1p-1
sim.cm.policy 0
sim.cm.max_retries 8
sim.cm.karma 64
sim.cm.stats 0
sim.provenance 0
params.threads 8
params.seed 1
params.scale 0x1p+0
params.oltp.records 1024
params.oltp.payload_bytes 16
params.oltp.tx_len 4
params.oltp.tx_per_thread 400
params.oltp.theta 0x1.fae147ae147aep-1
params.oltp.read_ratio 0x1p-1
params.oltp.rmw_ratio 0x0p+0
params.oltp.scan_ratio 0x0p+0
params.oltp.scan_len 8
params.oltp.hot_window 0
params.oltp.mix 0
timeseries 0
max_cycles 68719476736
)");
  EXPECT_EQ(spec.hash_hex, "804ebe27faa4e9f4");
}

// The per-line detectors run every nsub as 1, so one of their simulations
// has one cache key and one dedup key whatever nsub the caller spelled; a
// sub-block detector's nsub is part of both.
TEST(JobSpec, PerLineDetectorsIgnoreNsub) {
  const ExperimentConfig base = small_config();
  for (const auto kind : {DetectorKind::kBaseline, DetectorKind::kPerfect,
                          DetectorKind::kWarOnly}) {
    const std::string h1 = make_job_spec("counter", base.with(kind, 1)).hash_hex;
    const std::string k1 = runner::job_key("counter", base.with(kind, 1));
    for (const std::uint32_t n : {4u, 16u}) {
      EXPECT_EQ(make_job_spec("counter", base.with(kind, n)).hash_hex, h1)
          << to_string(kind) << " " << n;
      EXPECT_EQ(runner::job_key("counter", base.with(kind, n)), k1)
          << to_string(kind) << " " << n;
    }
  }
  for (const auto kind :
       {DetectorKind::kSubBlock, DetectorKind::kSubBlockWawLine,
        DetectorKind::kSubBlockNoDirty}) {
    std::set<std::string> hashes;
    std::set<std::string> keys;
    for (const std::uint32_t n : {2u, 4u, 16u}) {
      hashes.insert(make_job_spec("counter", base.with(kind, n)).hash_hex);
      keys.insert(runner::job_key("counter", base.with(kind, n)));
    }
    EXPECT_EQ(hashes.size(), 3u) << to_string(kind);
    EXPECT_EQ(keys.size(), 3u) << to_string(kind);
  }
}

TEST(JobSpec, MirrorsRunExperimentSeedOverride) {
  // run_experiment overwrites sim.seed with params.seed; a spec differing
  // only in the (ignored) sim.seed must map to the same job.
  auto a = small_config();
  a.sim.seed = 77;
  auto b = small_config();
  b.sim.seed = 99;
  EXPECT_EQ(make_job_spec("counter", a).hash_hex,
            make_job_spec("counter", b).hash_hex);
}

// ---- Stats serialization ---------------------------------------------------

TEST(StatsSerialize, RoundTripsEveryField) {
  ExperimentConfig cfg = small_config();
  cfg.timeseries = true;       // exercise the vector fields too
  cfg.sim.provenance = true;   // ... and both opt-in blob sections
  cfg.sim.cm.stats = true;
  const ExperimentResult r = run_experiment("counter", cfg);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  ASSERT_GT(r.stats.tx_commits, 0u);
  ASSERT_FALSE(r.stats.prov_site_names.empty());
  ASSERT_FALSE(r.stats.cm_max_consec_aborts.empty());

  const std::string blob = serialize_stats(r.stats);
  EXPECT_EQ(blob.rfind("asfsim-stats v5\n", 0), 0u);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_EQ(serialize_stats(back), blob);
  const auto same = [&](const auto& f) {
    EXPECT_EQ(back.*f.member, r.stats.*f.member) << f.info.key;
  };
  std::apply([&](const auto&... f) { (same(f), ...); },
             FieldTable<Stats>::fields);
}

TEST(StatsSerialize, RejectsCorruptBlobs) {
  Stats s;
  const std::string blob = serialize_stats(s);
  Stats out;
  EXPECT_TRUE(deserialize_stats(blob, out));
  EXPECT_FALSE(deserialize_stats(blob + "x", out));           // trailing junk
  EXPECT_FALSE(deserialize_stats(blob.substr(1), out));       // bad header
  EXPECT_FALSE(
      deserialize_stats(blob.substr(0, blob.size() - 4), out));  // truncated
}

// ---- Result cache ----------------------------------------------------------

TEST(ResultCache, MissThenHitRoundTripsTheResult) {
  TempCacheDir dir("roundtrip");
  ResultCache cache(dir.str());
  const JobSpec spec = make_job_spec("counter", small_config());
  EXPECT_FALSE(cache.load(spec).has_value());

  const ExperimentResult computed = run_experiment("counter", spec.config);
  cache.store(spec, computed);
  const auto loaded = cache.load(spec);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->workload, computed.workload);
  EXPECT_EQ(loaded->detector, computed.detector);
  EXPECT_EQ(loaded->validation_error, computed.validation_error);
  EXPECT_EQ(serialize_stats(loaded->stats), serialize_stats(computed.stats));
}

TEST(ResultCache, TamperedEntryIsAMissNotAWrongResult) {
  TempCacheDir dir("tamper");
  ResultCache cache(dir.str());
  const JobSpec spec = make_job_spec("counter", small_config());
  cache.store(spec, run_experiment("counter", spec.config));

  const std::string path = dir.str() + "/" +
                           std::string(runner::code_version_stamp()) + "/" +
                           spec.hash_hex + ".result";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ofstream(path, std::ios::app) << "garbage";
  EXPECT_FALSE(cache.load(spec).has_value());
}

// The satellite guard: mutating one SimConfig field must miss; re-running
// unchanged must hit without executing a simulation.
TEST(RunnerCache, ConfigMutationMissesUnchangedRerunHits) {
  TempCacheDir dir("mutation");
  const ExperimentConfig cfg = small_config();

  {
    Runner r(cached_opts(dir));
    (void)r.get("counter", cfg);
    EXPECT_EQ(r.totals().executed, 1u);
    EXPECT_EQ(r.totals().cache_hits, 0u);
  }
  {
    // One Table II latency changed: must be a miss (fresh simulation).
    ExperimentConfig mutated = cfg;
    mutated.sim.mem_latency += 1;
    Runner r(cached_opts(dir));
    (void)r.get("counter", mutated);
    EXPECT_EQ(r.totals().executed, 1u);
    EXPECT_EQ(r.totals().cache_hits, 0u);
  }
  {
    // Unchanged spec: must be a hit, zero simulations executed.
    Runner r(cached_opts(dir));
    const ExperimentResult cached = r.get("counter", cfg);
    EXPECT_EQ(r.totals().executed, 0u);
    EXPECT_EQ(r.totals().cache_hits, 1u);
    EXPECT_EQ(serialize_stats(cached.stats),
              serialize_stats(run_experiment("counter", cfg).stats));
  }
}

// fig1 spells the baseline (kBaseline, 4) and the fault sweep (kBaseline,
// 1): one simulation, so the second is served from the first's entry.
TEST(RunnerCache, PerLineNsubSpellingsShareOneEntry) {
  TempCacheDir dir("perline_nsub");
  const ExperimentConfig cfg = small_config();
  {
    Runner r(cached_opts(dir));
    (void)r.get("counter", cfg.with(DetectorKind::kBaseline, 4));
    EXPECT_EQ(r.totals().executed, 1u);
  }
  Runner r(cached_opts(dir));
  (void)r.get("counter", cfg.with(DetectorKind::kBaseline, 1));
  EXPECT_EQ(r.totals().executed, 0u);
  EXPECT_EQ(r.totals().cache_hits, 1u);
}

TEST(RunnerCache, NoCacheModeAlwaysExecutes) {
  TempCacheDir dir("nocache");
  auto opts = cached_opts(dir);
  opts.use_cache = false;
  {
    Runner r(opts);
    (void)r.get("counter", small_config());
  }
  Runner r(opts);
  (void)r.get("counter", small_config());
  EXPECT_EQ(r.totals().executed, 1u);
  EXPECT_EQ(r.totals().cache_hits, 0u);
}

TEST(Runner, DedupesIdenticalInFlightSpecs) {
  TempCacheDir dir("dedup");
  Runner r(cached_opts(dir, /*jobs=*/4));
  const ExperimentConfig cfg = small_config();
  auto f1 = r.submit("counter", cfg);
  auto f2 = r.submit("counter", cfg);
  (void)f1.get();
  (void)f2.get();
  EXPECT_EQ(r.totals().submitted, 1u);
  EXPECT_EQ(r.totals().deduped, 1u);
  EXPECT_EQ(r.totals().executed, 1u);
}

// The worker fills each manifest entry's hash from the spec it builds: one
// entry per distinct spec, in submission order, each hash the spec's own.
TEST(Runner, ManifestHashesAreTheJobSpecHashesInSubmissionOrder) {
  TempCacheDir dir("manifest_hashes");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
  std::vector<std::pair<std::string, ExperimentConfig>> jobs;
  for (const char* wl : {"counter", "bank"}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      ExperimentConfig cfg = small_config();
      cfg.params.seed = seed;
      jobs.emplace_back(wl, cfg);
    }
  }
  {
    auto opts = cached_opts(dir, /*jobs=*/3);
    opts.manifest_path = manifest;
    Runner r(opts);
    for (const auto& [wl, cfg] : jobs) (void)r.submit(wl, cfg);
    (void)r.submit(jobs[1].first, jobs[1].second);  // deduped: no entry
  }
  const std::string text = slurp(manifest);
  std::vector<std::string> hashes;
  const std::string tag = "{\"hash\": \"";
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + 1)) {
    hashes.push_back(text.substr(at + tag.size(), 16));
  }
  ASSERT_EQ(hashes.size(), jobs.size()) << text;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(hashes[i], make_job_spec(jobs[i].first, jobs[i].second).hash_hex)
        << "entry " << i;
  }
}

TEST(Runner, WritesMachineReadableManifest) {
  TempCacheDir dir("manifest");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;
    Runner r(opts);
    (void)r.get("counter", small_config());
    (void)r.get("bank", small_config());
  }
  std::ifstream in(manifest);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"executed\": 2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"workload\": \"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(text.find(runner::code_version_stamp()), std::string::npos);
}

TEST(Runner, ManifestEmbedsFaultCountersWhenOptedIn) {
  TempCacheDir dir("fault_counters");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
  ExperimentConfig cfg = small_config();
  cfg.sim.fault.spurious_abort_rate = 0.01;  // high enough to actually fire
  cfg.sim.fault.probe_jitter = 3;
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;
    Runner r(opts);
    (void)r.get("counter", cfg);
    (void)r.get("counter", small_config());  // fault-free: no counters object
  }
  const std::string text = slurp(manifest);
  EXPECT_NE(text.find("\"fault_counters\": {"), std::string::npos) << text;
  EXPECT_NE(text.find("\"spurious_aborts\":"), std::string::npos) << text;
  EXPECT_NE(text.find("\"probe_jitter_cycles\":"), std::string::npos) << text;
  // Exactly one entry carries the object: the fault-free job omits it.
  const std::size_t first = text.find("\"fault_counters\"");
  EXPECT_EQ(text.find("\"fault_counters\"", first + 1), std::string::npos)
      << text;
}

TEST(Runner, LivelockDumpLandsInManifestDiagnosticArray) {
  // Same no-forward-progress shape as asfsim_chaos livelock: the counter
  // workload's footprint overflows a tiny 1-way L1, every attempt capacity-
  // aborts, and the watchdog ends the run. The watchdog dump rides inside
  // LivelockError::what(); the manifest must split it into a one-line
  // "error" headline plus a "diagnostic" array.
  TempCacheDir dir("livelock_manifest");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
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
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;
    opts.use_cache = false;
    Runner r(opts);
    EXPECT_THROW((void)r.get("counter", cfg), runner::JobError);
  }
  const std::string text = slurp(manifest);
  EXPECT_NE(text.find("\"status\": \"failed\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"error\": \""), std::string::npos) << text;
  EXPECT_NE(text.find("livelock watchdog fired"), std::string::npos) << text;
  EXPECT_NE(text.find("\"diagnostic\": ["), std::string::npos) << text;
  // The headline "error" value itself must be single-line: no escaped
  // newline may appear anywhere (the dump was split, not embedded).
  EXPECT_EQ(text.find("\\n"), std::string::npos) << text;
  // Dump content made it into the array (per-core state + hot lines).
  EXPECT_NE(text.find("core "), std::string::npos) << text;
}

}  // namespace
}  // namespace asfsim
