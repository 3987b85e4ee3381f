// Parallelism must not change results: each simulation is single-threaded
// and deterministic, so a Runner with 8 workers must produce the same
// StatsReports — and figures the same CSV bytes — as a serial run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "harness/figures.hpp"
#include "runner/runner.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

using runner::Runner;
using runner::RunnerOptions;

class RunnerDeterminism : public ::testing::Test {
 protected:
  // Keep figure runs out of the real cache/manifest and off the terminal.
  void SetUp() override {
    ::setenv("ASFSIM_CACHE_DIR", "runner_determinism_cache", 1);
    ::setenv("ASFSIM_RUN_MANIFEST", "-", 1);
  }
  void TearDown() override {
    std::filesystem::remove_all("runner_determinism_cache");
    ::unsetenv("ASFSIM_CACHE_DIR");
    ::unsetenv("ASFSIM_RUN_MANIFEST");
  }
};

RunnerOptions uncached_opts(unsigned jobs) {
  RunnerOptions o;
  o.jobs = jobs;
  o.use_cache = false;
  o.manifest_path = "-";
  o.progress = RunnerOptions::Progress::kOff;
  return o;
}

/// serialize_stats covers every Stats field, so string equality is full
/// StatsReport equality.
std::vector<std::string> run_matrix(unsigned jobs) {
  const char* kWorkloads[] = {"counter", "bank"};
  const DetectorKind kDetectors[] = {DetectorKind::kBaseline,
                                     DetectorKind::kSubBlock,
                                     DetectorKind::kPerfect,
                                     DetectorKind::kWarOnly};
  Runner r(uncached_opts(jobs));
  std::vector<std::shared_future<ExperimentResult>> futs;
  for (const char* w : kWorkloads) {
    for (const DetectorKind d : kDetectors) {
      ExperimentConfig cfg;
      cfg.params.threads = 4;
      cfg.params.scale = 0.25;
      cfg.sim.ncores = 4;
      cfg.detector = d;
      futs.push_back(r.submit(w, cfg));
    }
  }
  std::vector<std::string> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(serialize_stats(f.get().stats));
  return out;
}

TEST_F(RunnerDeterminism, SerialAndJobs8StatsReportsAreIdentical) {
  const auto serial = run_matrix(1);
  const auto parallel = run_matrix(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
}

std::map<std::string, std::string> read_dir_bytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().filename().string()] =
        std::string((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

TEST_F(RunnerDeterminism, Fig2TextAndCsvBytesAreIdenticalUnderJobs8) {
  const std::filesystem::path serial_dir = "runner_determinism_csv_serial";
  const std::filesystem::path parallel_dir = "runner_determinism_csv_jobs8";
  for (const auto& d : {serial_dir, parallel_dir}) {
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
  }

  CliOptions opts;
  opts.scale = 0.25;
  opts.threads = 4;
  opts.no_cache = true;

  opts.jobs = 1;
  opts.csv_dir = serial_dir.string();
  std::ostringstream serial_text;
  const figures::Figure* fig2 = figures::find("fig2_conflict_type_breakdown");
  ASSERT_NE(fig2, nullptr);
  ASSERT_EQ(fig2->run(opts, serial_text), 0);

  opts.jobs = 8;
  opts.csv_dir = parallel_dir.string();
  std::ostringstream parallel_text;
  ASSERT_EQ(fig2->run(opts, parallel_text), 0);

  EXPECT_EQ(serial_text.str(), parallel_text.str());

  const auto serial_files = read_dir_bytes(serial_dir);
  const auto parallel_files = read_dir_bytes(parallel_dir);
  ASSERT_FALSE(serial_files.empty());
  ASSERT_EQ(serial_files.size(), parallel_files.size());
  for (const auto& [name, bytes] : serial_files) {
    ASSERT_TRUE(parallel_files.count(name)) << name;
    EXPECT_EQ(bytes, parallel_files.at(name)) << name;
  }

  for (const auto& d : {serial_dir, parallel_dir}) {
    std::filesystem::remove_all(d);
  }
}

}  // namespace
}  // namespace asfsim
