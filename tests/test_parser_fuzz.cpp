// Property tests for the two on-disk parsers: the stats blob
// (serialize_stats / deserialize_stats) and the JSONL trace line parser
// (from_jsonl). Mutated and truncated inputs must be rejected cleanly —
// never crash, never allocate unbounded memory, never parse into values a
// canonical re-serialization cannot reproduce. CI runs this suite under
// ASan/UBSan, which turns "cleanly" into an enforced property.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/serialize.hpp"
#include "trace/jsonl.hpp"

namespace asfsim {
namespace {

/// A real stats blob with non-trivial content in every section.
std::string sample_blob() {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  cfg.timeseries = true;  // populate the variable-length vectors too
  const ExperimentResult r = run_experiment("counter", cfg);
  return serialize_stats(r.stats);
}

TEST(StatsFuzz, AcceptsOnlyTheExactBlobNoPrefix) {
  const std::string blob = sample_blob();
  Stats out;
  ASSERT_TRUE(deserialize_stats(blob, out));
  for (std::size_t len = 0; len < blob.size(); len += 3) {
    EXPECT_FALSE(deserialize_stats(blob.substr(0, len), out))
        << "accepted a " << len << "-byte prefix of a " << blob.size()
        << "-byte blob";
  }
}

TEST(StatsFuzz, EveryByteCorruptionIsRejectedOrCanonicallyStable) {
  const std::string blob = sample_blob();
  Stats out;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x10, 0x80}) {
      std::string mutated = blob;
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      if (mutated == blob) continue;
      if (deserialize_stats(mutated, out)) {
        // A digit-for-digit flip yields a different but well-formed blob;
        // accepting it is fine iff the parse is canonically faithful.
        EXPECT_EQ(serialize_stats(out), mutated)
            << "pos " << pos << " flip " << int{flip}
            << ": accepted a non-canonical blob";
      }
    }
  }
}

TEST(StatsFuzz, HugeCountFieldsNeverAllocate) {
  // A corrupted count must be rejected up front — not fed to reserve().
  // Build a blob whose first variable-length section claims 10^18 entries.
  const std::string blob = sample_blob();
  const std::size_t pos = blob.find("false_by_line ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t val = pos + std::string("false_by_line ").size();
  const std::size_t end = blob.find(' ', val);
  std::string mutated =
      blob.substr(0, val) + "999999999999999999" +
      blob.substr(end == std::string::npos ? blob.find('\n', val) : end);
  Stats out;
  EXPECT_FALSE(deserialize_stats(mutated, out));

  // And numbers too wide for uint64 must not wrap silently.
  std::string wide = blob;
  const std::size_t c = wide.find("tx_commits ");
  ASSERT_NE(c, std::string::npos);
  wide.insert(c + std::string("tx_commits ").size(), "184467440737095516160");
  EXPECT_FALSE(deserialize_stats(wide, out));
}

TEST(StatsFuzz, SentinelLineAddressIsRejected) {
  // false_by_line is an AddrMap, whose empty-slot sentinel is the all-ones
  // address. A cached blob naming that line must be malformed input, not a
  // Debug assert or a corrupted map in Release.
  const std::string blob = sample_blob();
  const std::size_t pos = blob.find("false_by_line ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = blob.find('\n', pos);
  auto with_line = [&](const char* addr) {
    return blob.substr(0, pos) + "false_by_line 2 " + addr + " 1" +
           blob.substr(end);
  };
  Stats out;
  EXPECT_FALSE(deserialize_stats(with_line("18446744073709551615"), out));
  // Control: the largest non-sentinel address parses back canonically.
  const std::string ok = with_line("18446744073709551614");
  ASSERT_TRUE(deserialize_stats(ok, out));
  EXPECT_EQ(out.false_by_line.size(), 1u);
  EXPECT_EQ(serialize_stats(out), ok);
}

TEST(StatsFuzz, GarbageInputsAreRejected) {
  Stats out;
  EXPECT_FALSE(deserialize_stats("", out));
  EXPECT_FALSE(deserialize_stats("asfsim-stats v3", out));  // header only
  EXPECT_FALSE(deserialize_stats("asfsim-stats v1\n", out));  // old version
  EXPECT_FALSE(deserialize_stats(std::string(4096, 'x'), out));
  EXPECT_FALSE(deserialize_stats(std::string(4096, '\0'), out));
}

// ---- trace JSONL -----------------------------------------------------------

/// Real trace lines of every kind the simulator emits. The capture file is
/// named after the calling test: ctest runs each TEST as its own process,
/// and a shared name races under -j (one test's cleanup deletes the file
/// another is still reading).
std::vector<std::string> sample_lines() {
  const std::string path =
      std::string("parser_fuzz_trace_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  TraceOptions trace;
  trace.format = TraceFormat::kJsonl;
  trace.path = path;
  (void)run_experiment("counter", cfg, trace);

  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line) && lines.size() < 200) {
    if (!line.empty()) lines.push_back(line);
  }
  std::filesystem::remove(path);
  return lines;
}

TEST(TraceFuzz, ParsesWhatItWrites) {
  const auto lines = sample_lines();
  ASSERT_GT(lines.size(), 10u);
  trace::TraceEvent ev;
  for (const std::string& line : lines) {
    ASSERT_TRUE(trace::from_jsonl(line, ev)) << line;
    std::string back;
    trace::to_jsonl(ev, back);
    EXPECT_EQ(back, line + "\n") << line;
  }
}

TEST(TraceFuzz, RejectsEveryTruncation) {
  const auto lines = sample_lines();
  ASSERT_FALSE(lines.empty());
  trace::TraceEvent ev;
  for (std::size_t li = 0; li < lines.size(); li += 7) {
    const std::string& line = lines[li];
    for (std::size_t len = 0; len < line.size(); ++len) {
      EXPECT_FALSE(trace::from_jsonl(line.substr(0, len), ev))
          << "accepted truncation of: " << line;
    }
  }
}

TEST(TraceFuzz, ByteCorruptionIsRejectedOrSemanticallyFaithful) {
  const auto lines = sample_lines();
  ASSERT_FALSE(lines.empty());
  trace::TraceEvent ev;
  for (std::size_t li = 0; li < lines.size(); li += 11) {
    const std::string& line = lines[li];
    for (std::size_t pos = 0; pos < line.size(); ++pos) {
      std::string mutated = line;
      mutated[pos] = static_cast<char>(mutated[pos] ^ 0x08);
      if (mutated == line) continue;
      if (trace::from_jsonl(mutated, ev)) {
        // Accepted input must round-trip stably: re-serializing the parsed
        // event and parsing that again yields the identical event bytes.
        std::string back;
        trace::to_jsonl(ev, back);
        trace::TraceEvent ev2;
        ASSERT_TRUE(trace::from_jsonl(back, ev2)) << mutated;
        std::string back2;
        trace::to_jsonl(ev2, back2);
        EXPECT_EQ(back, back2) << "unstable parse of: " << mutated;
      }
    }
  }
}

TEST(TraceFuzz, GarbageLinesAreRejected) {
  trace::TraceEvent ev;
  EXPECT_FALSE(trace::from_jsonl("", ev));
  EXPECT_FALSE(trace::from_jsonl("{}", ev));
  EXPECT_FALSE(trace::from_jsonl("{\"kind\":\"nope\"}", ev));
  EXPECT_FALSE(trace::from_jsonl("not json at all", ev));
  EXPECT_FALSE(trace::from_jsonl(std::string(8192, '{'), ev));
  EXPECT_FALSE(trace::from_jsonl(
      "{\"kind\":\"commit\",\"cycle\":99999999999999999999999999}", ev));
}

}  // namespace
}  // namespace asfsim
