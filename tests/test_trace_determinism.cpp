// Trace files must be byte-deterministic: the same (workload, seed) job
// produces the exact same JSONL bytes whether the runner executes serially
// or with 8 workers, and regardless of what else runs alongside. Also
// checks that traced runs land in the runner's JSON manifest.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "runner/runner.hpp"

namespace asfsim {
namespace {

using runner::Runner;
using runner::RunnerOptions;

class TraceDeterminism : public ::testing::Test {
 protected:
  // Directories are namespaced per test: ctest runs each test in its own
  // process, possibly concurrently, from the same working directory.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = std::string("trace_determinism_") + info->name();
    ::setenv("ASFSIM_CACHE_DIR", dir("cache").c_str(), 1);
    ::setenv("ASFSIM_RUN_MANIFEST", "-", 1);
  }
  void TearDown() override {
    std::filesystem::remove_all(base_);
    ::unsetenv("ASFSIM_CACHE_DIR");
    ::unsetenv("ASFSIM_RUN_MANIFEST");
  }

  [[nodiscard]] std::string dir(const std::string& leaf) const {
    return base_ + "/" + leaf;
  }

 private:
  std::string base_;
};

RunnerOptions traced_opts(unsigned jobs, const std::string& trace_dir) {
  RunnerOptions o;
  o.jobs = jobs;
  o.use_cache = false;
  o.manifest_path = "-";
  o.progress = RunnerOptions::Progress::kOff;
  o.trace_dir = trace_dir;
  o.trace_format = TraceFormat::kJsonl;
  return o;
}

void run_matrix(unsigned jobs, const std::string& trace_dir) {
  Runner r(traced_opts(jobs, trace_dir));
  std::vector<std::shared_future<ExperimentResult>> futs;
  for (const char* w : {"counter", "bank"}) {
    for (const DetectorKind d :
         {DetectorKind::kBaseline, DetectorKind::kSubBlock,
          DetectorKind::kPerfect, DetectorKind::kWarOnly}) {
      ExperimentConfig cfg;
      cfg.params.threads = 4;
      cfg.params.scale = 0.25;
      cfg.sim.ncores = 4;
      cfg.detector = d;
      futs.push_back(r.submit(w, cfg));
    }
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().ok());
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

TEST_F(TraceDeterminism, JsonlBytesAreIdenticalAcrossJobs1And8) {
  run_matrix(1, dir("serial"));
  run_matrix(8, dir("jobs8"));

  const auto serial = read_dir_bytes(dir("serial"));
  const auto parallel = read_dir_bytes(dir("jobs8"));
  ASSERT_EQ(serial.size(), 8u);  // one trace per distinct job
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, bytes] : serial) {
    ASSERT_TRUE(parallel.count(name)) << name;
    EXPECT_EQ(bytes, parallel.at(name)) << name;
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_EQ(name.find(".jsonl"), name.size() - 6) << name;
  }
}

TEST_F(TraceDeterminism, ManifestRecordsPerJobTracePaths) {
  const std::string manifest = dir("manifest") + "/manifest.json";
  ::setenv("ASFSIM_RUN_MANIFEST", manifest.c_str(), 1);
  {
    Runner r(traced_opts(2, dir("traces")));
    ExperimentConfig cfg;
    cfg.params.threads = 4;
    cfg.params.scale = 0.25;
    cfg.sim.ncores = 4;
    ASSERT_TRUE(r.get("counter", cfg).ok());
  }  // ~Runner writes the manifest
  std::ifstream in(manifest);
  ASSERT_TRUE(in.is_open());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"trace\": \"" + dir("traces") + "/counter-"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(".jsonl\""), std::string::npos) << text;
}

}  // namespace
}  // namespace asfsim
