// OLTP/KV workload family: zipf generator statistics, YCSB mix presets,
// throughput/latency metrics, and byte-determinism across --jobs values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "oltp/oltp_config.hpp"
#include "oltp/zipf.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

// ---- zipf generator --------------------------------------------------------

class ZipfChiSquared : public ::testing::TestWithParam<double> {};

/// The sampled histogram must match the analytic pmf. The generator is
/// deterministic, so this is a golden statistical check, not a flaky one:
/// with 64 cells and 200k draws the chi-squared statistic for a correct
/// sampler sits far below the dof=63 p=0.999 quantile (~103.4).
TEST_P(ZipfChiSquared, MatchesAnalyticPmf) {
  const double theta = GetParam();
  constexpr std::uint64_t kKeys = 64;
  constexpr std::uint64_t kDraws = 200'000;
  const ZipfGenerator gen(kKeys, theta);

  double pmf_sum = 0.0;
  for (std::uint64_t k = 0; k < kKeys; ++k) pmf_sum += gen.pmf(k);
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);

  std::vector<std::uint64_t> observed(kKeys, 0);
  Rng rng(42);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t k = gen.next(rng);
    ASSERT_LT(k, kKeys);
    ++observed[k];
  }

  double chi2 = 0.0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const double expected = static_cast<double>(kDraws) * gen.pmf(k);
    ASSERT_GT(expected, 5.0) << "cell " << k
                             << " too thin for a chi-squared test";
    const double d = static_cast<double>(observed[k]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 103.4) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfChiSquared,
                         ::testing::Values(0.0, 0.5, 0.99, 1.5));

TEST(Zipf, SkewConcentratesOnHotKeys) {
  const ZipfGenerator uniform(64, 0.0);
  const ZipfGenerator skewed(64, 1.5);
  EXPECT_NEAR(uniform.pmf(0), 1.0 / 64, 1e-12);
  EXPECT_GT(skewed.pmf(0), 0.3);           // rank 0 dominates
  EXPECT_GT(skewed.pmf(0), skewed.pmf(1));  // strictly decreasing in rank
  EXPECT_GT(skewed.pmf(1), skewed.pmf(63));
}

TEST(Zipf, SameSeedSameSequenceDifferentSeedDiffers) {
  const ZipfGenerator gen(1024, 0.99);
  auto draw = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> keys(1000);
    for (auto& k : keys) k = gen.next(rng);
    return keys;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(Zipf, RejectsDegenerateArguments) {
  EXPECT_THROW(ZipfGenerator(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(16, -0.1), std::invalid_argument);
  EXPECT_NO_THROW(ZipfGenerator(1, 0.0));
}

/// key_for(u) must equal a binary search over the whole CDF for every u:
/// random draws, every bucket edge b/B, and the double just below each edge
/// (the values whose answer sits on the far side of a bucket bracket).
class ZipfBucketEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZipfBucketEquivalence, MatchesFullTableSearch) {
  const std::uint64_t n = GetParam();
  for (const double theta : {0.0, 0.6, 0.99, 1.1, 1.5}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " theta=" + std::to_string(theta));
    const ZipfGenerator gen(n, theta);
    const std::vector<double>& cdf = gen.cdf();
    auto full = [&](double u) {
      return static_cast<std::uint64_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    };
    Rng rng(n ^ 0x5eed);
    for (int i = 0; i < 100'000; ++i) {
      const double u = rng.next_double();
      ASSERT_EQ(gen.key_for(u), full(u)) << "u=" << u;
    }
    const std::size_t buckets = gen.hint_buckets();
    for (std::size_t b = 0; b < buckets; ++b) {
      const double edge =
          static_cast<double>(b) / static_cast<double>(buckets);
      ASSERT_EQ(gen.key_for(edge), full(edge)) << "edge b=" << b;
      if (b == 0) continue;
      const double below = std::nextafter(edge, 0.0);
      ASSERT_EQ(gen.key_for(below), full(below)) << "below edge b=" << b;
    }
    const double top = std::nextafter(1.0, 0.0);  // largest u next() yields
    ASSERT_EQ(gen.key_for(top), full(top));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfBucketEquivalence,
                         ::testing::Values(1, 2, 1000, 1024, 4097, 262144,
                                           std::uint64_t{1} << 20));

/// The hint table is the smallest power of two >= max(1024, n / 4) buckets:
/// 1024 up to 4096 keys, one bucket per four keys beyond, and at most
/// 2^18 + 1 uint32 entries (1 MB) at the --oltp-records limit of 2^20.
TEST(Zipf, HintTableSizeIsBounded) {
  EXPECT_EQ(ZipfGenerator(1, 0.99).hint_buckets(), 1024u);
  EXPECT_EQ(ZipfGenerator(4096, 0.99).hint_buckets(), 1024u);
  EXPECT_EQ(ZipfGenerator(8192, 0.99).hint_buckets(), 2048u);
  EXPECT_EQ(ZipfGenerator(262144, 0.99).hint_buckets(), 65536u);
  EXPECT_EQ(ZipfGenerator(262145, 0.99).hint_buckets(), 65536u);
  EXPECT_EQ(ZipfGenerator(262148, 0.99).hint_buckets(), 131072u);
  EXPECT_EQ(ZipfGenerator(std::uint64_t{1} << 20, 0.99).hint_buckets(),
            std::size_t{1} << 18);
}

// ---- mix presets and config validation -------------------------------------

TEST(OltpConfig, PresetsResolveToDocumentedRatios) {
  struct Want {
    OltpMix mix;
    double read, rmw, scan;
  };
  // Inserts (YCSB D/E) are modeled as updates on the fixed-size table;
  // D's "latest" distribution as the configured zipf (docs/workloads.md).
  const Want wants[] = {
      {OltpMix::kA, 0.5, 0.0, 0.0},  {OltpMix::kB, 0.95, 0.0, 0.0},
      {OltpMix::kC, 1.0, 0.0, 0.0},  {OltpMix::kD, 0.95, 0.0, 0.0},
      {OltpMix::kE, 0.0, 0.0, 0.95}, {OltpMix::kF, 0.5, 0.5, 0.0},
  };
  for (const Want& w : wants) {
    OltpConfig cfg;
    cfg.mix = w.mix;
    const OltpConfig r = cfg.resolved();
    EXPECT_EQ(r.read_ratio, w.read) << to_string(w.mix);
    EXPECT_EQ(r.rmw_ratio, w.rmw) << to_string(w.mix);
    EXPECT_EQ(r.scan_ratio, w.scan) << to_string(w.mix);
    EXPECT_TRUE(r.validate().empty()) << to_string(w.mix);
  }
  // kCustom keeps the free-form knobs verbatim.
  OltpConfig custom;
  custom.read_ratio = 0.25;
  custom.rmw_ratio = 0.25;
  EXPECT_EQ(custom.resolved().read_ratio, 0.25);
  EXPECT_EQ(custom.resolved().rmw_ratio, 0.25);
}

TEST(OltpConfig, MixNamesRoundTrip) {
  for (const OltpMix m : {OltpMix::kCustom, OltpMix::kA, OltpMix::kB,
                          OltpMix::kC, OltpMix::kD, OltpMix::kE, OltpMix::kF}) {
    OltpMix parsed{};
    EXPECT_TRUE(parse_oltp_mix(to_string(m), parsed)) << to_string(m);
    EXPECT_EQ(parsed, m);
  }
  OltpMix parsed{};
  EXPECT_FALSE(parse_oltp_mix("g", parsed));
  EXPECT_TRUE(parse_oltp_mix("", parsed));
  EXPECT_EQ(parsed, OltpMix::kCustom);
}

TEST(OltpConfig, ValidateRejectsInconsistentKnobs) {
  EXPECT_TRUE(OltpConfig{}.validate().empty());
  auto broken = [](auto mutate) {
    OltpConfig c;
    mutate(c);
    return c.validate();
  };
  EXPECT_FALSE(broken([](OltpConfig& c) { c.records = 1; }).empty());
  EXPECT_FALSE(broken([](OltpConfig& c) { c.payload_bytes = 12; }).empty());
  EXPECT_FALSE(broken([](OltpConfig& c) { c.tx_len = 0; }).empty());
  EXPECT_FALSE(broken([](OltpConfig& c) { c.theta = -0.5; }).empty());
  EXPECT_FALSE(broken([](OltpConfig& c) {
                 c.read_ratio = 0.8;
                 c.rmw_ratio = 0.8;
               }).empty());
  EXPECT_FALSE(broken([](OltpConfig& c) { c.scan_len = 0; }).empty());
  EXPECT_FALSE(
      broken([](OltpConfig& c) { c.scan_len = 100'000'000; }).empty());
}

// ---- throughput / latency metrics ------------------------------------------

TEST(OltpMetrics, CommitsPerSimulatedSecond) {
  Stats s;
  s.tx_commits = 1000;
  s.total_cycles = 2'200'000;  // 1ms at the paper's 2.2 GHz
  EXPECT_DOUBLE_EQ(s.commits_per_simsec(), 1e6);
  s.total_cycles = 0;
  EXPECT_DOUBLE_EQ(s.commits_per_simsec(), 0.0);
}

TEST(OltpMetrics, LatencyPercentilesInterpolateWithinBuckets) {
  Stats s;
  EXPECT_DOUBLE_EQ(s.latency_percentile(0.5), 0.0);  // empty histogram

  // All mass in [8, 16): every percentile must land inside that bucket.
  for (int i = 0; i < 100; ++i) s.on_tx_latency(10);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(s.latency_percentile(p), 8.0) << p;
    EXPECT_LE(s.latency_percentile(p), 16.0) << p;
  }

  // Bimodal: half at 1 cycle, half in [512, 1024) — the tail percentiles
  // must see the slow mode, the low ones the fast mode, monotonically.
  Stats b;
  for (int i = 0; i < 50; ++i) b.on_tx_latency(1);
  for (int i = 0; i < 50; ++i) b.on_tx_latency(700);
  EXPECT_LE(b.latency_percentile(0.25), 2.0);
  EXPECT_GE(b.latency_percentile(0.99), 512.0);
  EXPECT_LE(b.latency_percentile(0.50), b.latency_percentile(0.95));
  EXPECT_LE(b.latency_percentile(0.95), b.latency_percentile(0.99));
}

TEST(OltpMetrics, LatencyHistogramSurvivesBlobRoundTrip) {
  Stats s;
  s.on_tx_latency(0);
  s.on_tx_latency(5);
  s.on_tx_latency(1'000'000);
  const std::string blob = serialize_stats(s);
  EXPECT_NE(blob.find("tx_latency_hist"), std::string::npos);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_EQ(back.tx_latency_hist, s.tx_latency_hist);
}

// ---- end-to-end: the workload under the simulator --------------------------

std::uint64_t hist_total(const Stats& s) {
  return std::accumulate(s.tx_latency_hist.begin(), s.tx_latency_hist.end(),
                         std::uint64_t{0});
}

TEST(OltpWorkload, RmwHeavyMixValidatesAndFillsLatencyHistogram) {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.nsub = 4;
  cfg.params.scale = 0.3;
  cfg.params.oltp.mix = OltpMix::kF;  // 50% RMW: exercises the version-
                                      // conservation oracle hardest
  const auto r = run_experiment("oltp", cfg);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  EXPECT_GT(r.stats.tx_commits, 0u);
  EXPECT_GT(r.stats.commits_per_simsec(), 0.0);
  // One latency sample per logical transaction: hardware commits plus
  // software-fallback completions.
  EXPECT_EQ(hist_total(r.stats),
            r.stats.tx_commits + r.stats.fallback_runs);
  EXPECT_LE(r.stats.latency_percentile(0.5), r.stats.latency_percentile(0.99));
}

TEST(OltpWorkload, HighSkewStressesBaselineMoreThanSubblock) {
  auto aborts = [](DetectorKind d, std::uint32_t nsub) {
    ExperimentConfig cfg;
    cfg.detector = d;
    cfg.nsub = nsub;
    cfg.params.scale = 0.3;
    cfg.params.oltp.theta = 1.2;
    cfg.params.oltp.read_ratio = 0.5;
    const auto r = run_experiment("oltp", cfg);
    EXPECT_TRUE(r.ok()) << r.validation_error;
    return r.stats.tx_aborts;
  };
  // Per-line detection sees every false conflict the unpadded record table
  // manufactures; sub-blocking must strictly reduce aborts at high skew.
  EXPECT_LT(aborts(DetectorKind::kSubBlock, 4),
            aborts(DetectorKind::kBaseline, 1));
}

// ---- byte-determinism across --jobs for every preset ------------------------

class OltpRunnerDeterminism : public ::testing::Test {
 protected:
  // Keep runs out of the real cache/manifest and off the terminal.
  void SetUp() override {
    ::setenv("ASFSIM_CACHE_DIR", "oltp_determinism_cache", 1);
    ::setenv("ASFSIM_RUN_MANIFEST", "-", 1);
  }
  void TearDown() override {
    std::filesystem::remove_all("oltp_determinism_cache");
    ::unsetenv("ASFSIM_CACHE_DIR");
    ::unsetenv("ASFSIM_RUN_MANIFEST");
  }
};

/// serialize_stats covers every Stats field (enforced by asfsim_lint), so
/// string equality is full StatsReport equality.
std::vector<std::string> run_presets(unsigned jobs) {
  runner::RunnerOptions o;
  o.jobs = jobs;
  o.use_cache = false;
  o.manifest_path = "-";
  o.progress = runner::RunnerOptions::Progress::kOff;
  runner::Runner r(o);
  std::vector<std::shared_future<ExperimentResult>> futs;
  for (const OltpMix mix : {OltpMix::kA, OltpMix::kB, OltpMix::kC,
                            OltpMix::kD, OltpMix::kE, OltpMix::kF}) {
    ExperimentConfig cfg;
    cfg.detector = DetectorKind::kSubBlock;
    cfg.nsub = 4;
    cfg.params.threads = 4;
    cfg.params.scale = 0.25;
    cfg.sim.ncores = 4;
    cfg.params.oltp.mix = mix;
    futs.push_back(r.submit("oltp", cfg));
  }
  std::vector<std::string> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(serialize_stats(f.get().stats));
  return out;
}

TEST_F(OltpRunnerDeterminism, EveryPresetByteIdenticalUnderJobs1And8) {
  const auto serial = run_presets(1);
  const auto parallel = run_presets(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "preset " << i;
  }
}

}  // namespace
}  // namespace asfsim
