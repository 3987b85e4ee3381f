// Unit tests: GRing, GuestBarrier, Stats hooks, TextTable/CsvWriter, CLI
// parsing and its diagnostics, logging.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "guest/barrier.hpp"
#include "guest/glist.hpp"
#include "guest/machine.hpp"
#include "harness/args.hpp"
#include "sim/log.hpp"
#include "stats/report.hpp"

namespace asfsim {
namespace {

SimConfig cores(std::uint32_t n) {
  SimConfig c;
  c.ncores = n;
  return c;
}

// ---- GRing ------------------------------------------------------------------

Task<void> ring_ops(GuestCtx& c, GRing* ring, std::deque<std::uint64_t>* model,
                    std::uint64_t seed, int nops, bool* mismatch) {
  Rng rng(seed);
  for (int i = 0; i < nops; ++i) {
    if (rng.chance(0.55)) {
      const std::uint64_t v = 1 + rng.below(1000);
      co_await ring->push(c, v);
      model->push_back(v);
    } else {
      const std::uint64_t v = co_await ring->pop(c);
      if (model->empty()) {
        if (v != 0) *mismatch = true;
      } else {
        if (v != model->front()) *mismatch = true;
        model->pop_front();
      }
    }
  }
}

class GRingModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GRingModel, FifoMatchesStdDeque) {
  Machine m(cores(1), DetectorKind::kBaseline);
  GRing ring = GRing::create(m, 2048);
  std::deque<std::uint64_t> model;
  bool mismatch = false;
  m.spawn(0, ring_ops(m.ctx(0), &ring, &model, GetParam() * 5 + 1, 1500,
                      &mismatch));
  m.run();
  EXPECT_FALSE(mismatch);
  EXPECT_EQ(ring.host_size(m), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GRingModel, ::testing::Values(1, 2, 3));

TEST(GRing, HostPushInteroperatesWithGuestPop) {
  Machine m(cores(1), DetectorKind::kBaseline);
  GRing ring = GRing::create(m, 64);
  for (std::uint64_t v = 1; v <= 10; ++v) ring.host_push(m, v * 7);
  bool ok = true;
  auto drain = [](GuestCtx& c, GRing* r, bool* ok_out) -> Task<void> {
    for (std::uint64_t v = 1; v <= 10; ++v) {
      const std::uint64_t got = co_await r->pop(c);
      if (got != v * 7) *ok_out = false;
    }
    const std::uint64_t empty = co_await r->pop(c);
    if (empty != 0) *ok_out = false;
  };
  m.spawn(0, drain(m.ctx(0), &ring, &ok));
  m.run();
  EXPECT_TRUE(ok);
}

TEST(GRing, WrapsAroundItsCapacity) {
  Machine m(cores(1), DetectorKind::kBaseline);
  GRing ring = GRing::create(m, 8);
  bool ok = true;
  auto churn = [](GuestCtx& c, GRing* r, bool* ok_out) -> Task<void> {
    for (std::uint64_t round = 1; round <= 40; ++round) {
      co_await r->push(c, round);
      const std::uint64_t got = co_await r->pop(c);
      if (got != round) *ok_out = false;
    }
  };
  m.spawn(0, churn(m.ctx(0), &ring, &ok));
  m.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ring.host_size(m), 0u);
}

// ---- GuestBarrier -------------------------------------------------------------

Task<void> barrier_worker(GuestCtx& c, GuestBarrier* bar, Cycle jitter,
                          int* arrived, std::vector<int>* seen_at_release) {
  co_await c.wait(jitter);
  ++*arrived;
  co_await bar->arrive_and_wait(c);
  // Everyone observes the FULL arrival count after release — nobody got
  // through early.
  seen_at_release->push_back(*arrived);
}

TEST(GuestBarrier, NobodyPassesBeforeTheLastArrival) {
  Machine m(cores(4), DetectorKind::kBaseline);
  GuestBarrier bar(m.kernel(), 4);
  int arrived = 0;
  std::vector<int> seen;
  for (CoreId c = 0; c < 4; ++c) {
    m.spawn(c, barrier_worker(m.ctx(c), &bar, 137 * c + 1, &arrived, &seen));
  }
  m.run();
  ASSERT_EQ(seen.size(), 4u);
  for (const int v : seen) EXPECT_EQ(v, 4);
}

TEST(GuestBarrier, IsReusableAcrossPhases) {
  Machine m(cores(3), DetectorKind::kBaseline);
  GuestBarrier bar(m.kernel(), 3);
  int phase_errors = 0;
  int phase = 0;
  auto worker = [](GuestCtx& c, GuestBarrier* b, int* ph, int* errs,
                   bool leader) -> Task<void> {
    for (int p = 0; p < 5; ++p) {
      co_await b->arrive_and_wait(c);
      if (leader) ++*ph;
      co_await b->arrive_and_wait(c);
      if (*ph != p + 1) ++*errs;
      co_await c.wait(50 + 13 * c.core());
    }
  };
  for (CoreId c = 0; c < 3; ++c) {
    m.spawn(c, worker(m.ctx(c), &bar, &phase, &phase_errors, c == 0));
  }
  m.run();
  EXPECT_EQ(phase_errors, 0);
  EXPECT_EQ(phase, 5);
}

TEST(GuestBarrier, UnreachedBarrierIsDetectedAsDeadlock) {
  Machine m(cores(2), DetectorKind::kBaseline);
  GuestBarrier bar(m.kernel(), 3);  // one party will never come
  auto arrive = [](GuestCtx& c, GuestBarrier* b) -> Task<void> {
    co_await b->arrive_and_wait(c);
  };
  m.spawn(0, arrive(m.ctx(0), &bar));
  m.spawn(1, arrive(m.ctx(1), &bar));
  EXPECT_THROW(m.run(), DeadlockError);
}

// ---- Stats hooks -----------------------------------------------------------

TEST(Stats, ConflictHookClassifiesAndBins) {
  Stats s;
  s.record_timeseries = true;
  ConflictRecord rec;
  rec.line = 0x1000;
  rec.cycle = 42;
  rec.is_false = true;
  rec.type = ConflictType::kRAW;
  rec.probe_bytes = byte_mask(0, 4);
  rec.victim_bytes = byte_mask(4, 4);  // adjacent word: survives 2..8, not 16
  s.on_conflict(rec);
  EXPECT_EQ(s.conflicts_total, 1u);
  EXPECT_EQ(s.conflicts_false, 1u);
  EXPECT_EQ(s.false_by_type[1], 1u);
  EXPECT_EQ(s.false_by_line[0x1000], 1u);
  EXPECT_EQ(s.false_conflict_cycles.size(), 1u);
  EXPECT_EQ(s.false_surviving_at[0], 1u);  // 1 sub-block
  EXPECT_EQ(s.false_surviving_at[3], 1u);  // 8 sub-blocks: same 8B block
  EXPECT_EQ(s.false_surviving_at[4], 0u);  // 16 sub-blocks: separated
}

TEST(Stats, DerivedRates) {
  Stats s;
  EXPECT_EQ(s.false_conflict_rate(), 0.0);
  EXPECT_EQ(s.avg_retries(), 0.0);
  s.conflicts_total = 10;
  s.conflicts_false = 4;
  s.tx_attempts = 30;
  s.tx_commits = 20;
  EXPECT_DOUBLE_EQ(s.false_conflict_rate(), 0.4);
  EXPECT_DOUBLE_EQ(s.avg_retries(), 0.5);
}

// ---- report helpers -----------------------------------------------------------

TEST(TextTable, AlignsColumnsAndFormats) {
  TextTable t({"a", "long-header"});
  t.add_row({"xxxxxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxxxx"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(TextTable::pct(0.1234), "12.3%");
  EXPECT_EQ(TextTable::num(1.5, 1), "1.5");
}

TEST(CsvWriter, InactiveWithoutDirActiveWithIt) {
  CsvWriter off("", "x");
  EXPECT_FALSE(off.active());
  off.row({"never", "written"});  // must be a safe no-op

  const std::string dir = ::testing::TempDir();
  CsvWriter on(dir, "misc_test");
  EXPECT_TRUE(on.active());
  on.row({"h1", "h2"});
  on.row({"1", "2"});
}

TEST(Sheet, WritesEachValueOnceToTheTableAndTheCsv) {
  const std::string dir = ::testing::TempDir();
  std::ostringstream table;
  {
    // "Note" is table-only, "raw" CSV-only.
    Sheet s(dir, "sheet_test",
            {{"Name", "name"}, {"Rate", "rate"}, {"Note", ""}, {"", "raw"},
             {"Mean", "mean"}});
    s.add({text("a"), pct(0.1234), text("x"), count(7), num(2.345, 1, 3)});
    s.add({text("bb"), pct(1.0), text("yy"), count(12345), num(10, 1, 3)});
    s.print(table);
  }
  EXPECT_EQ(table.str(),
            "Name  Rate    Note  Mean\n"
            "------------------------\n"
            "a     12.3%   x     2.3 \n"
            "bb    100.0%  yy    10.0\n");
  std::ifstream in(dir + "/sheet_test.csv", std::ios::binary);
  const std::string csv((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(csv,
            "name,rate,raw,mean\n"
            "a,0.1234,7,2.345\n"
            "bb,1.0000,12345,10.000\n");
}

// ---- CLI parsing ----------------------------------------------------------------

/// parse_cli over `args`, with "prog" as argv[0]; every common flag group
/// unless `spec` names fewer.
CliOptions parse(std::vector<const char*> args,
                 const CliSpec& spec = {.groups = kCliAllGroups}) {
  args.insert(args.begin(), "prog");
  return parse_cli(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()), spec);
}

TEST(Cli, ParsesAllFlags) {
  const CliOptions o = parse({"--scale", "2.5", "--threads", "4", "--seed",
                              "99", "--csv", "/tmp/x"});
  EXPECT_DOUBLE_EQ(o.scale, 2.5);
  EXPECT_EQ(o.threads, 4u);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.csv_dir, "/tmp/x");
}

TEST(Cli, DefaultsApply) {
  const CliOptions o = parse({});
  EXPECT_DOUBLE_EQ(o.scale, 1.0);
  EXPECT_EQ(o.threads, 8u);
  EXPECT_EQ(o.seed, 1u);
  EXPECT_TRUE(o.csv_dir.empty());
}

TEST(Cli, MalformedNumbersExitTwoWithOneLine) {
  for (const auto& [flag, text] :
       {std::pair{"--scale", "abc"}, {"--seed", "12x"}, {"--jobs", "-1"},
        {"--threads", "x"}, {"--threads", "0"}, {"--scale", "nan"},
        {"--fault-spurious", "1.5"}, {"--seed", "99999999999999999999999"},
        {"--oltp-theta", "-0.5"}, {"--watchdog", ""}}) {
    EXPECT_EXIT((void)parse({flag, text}), ::testing::ExitedWithCode(2),
                std::string("^prog: bad value for ") + flag + ": '" + text +
                    "'\n$")
        << flag << " " << text;
  }
}

TEST(Cli, UsageErrorsExitTwo) {
  EXPECT_EXIT((void)parse({"--seed"}), ::testing::ExitedWithCode(2),
              "^prog: missing value for --seed\n$");
  EXPECT_EXIT((void)parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "^prog: unknown flag --bogus");
  EXPECT_EXIT((void)parse({"--trace-format", "xml"}),
              ::testing::ExitedWithCode(2),
              "^prog: bad value for --trace-format: 'xml'\n$");
}

TEST(Cli, ToolHookSeesOnlyUnknownFlags) {
  std::uint32_t nsub = 0;
  DetectorKind det = DetectorKind::kBaseline;
  const CliSpec spec{.groups = kCliAllGroups,
                     .flags = {nsub_flag(nsub)},
                     .check = nsub_check(det, nsub)};
  const CliOptions o = parse({"--nsub", "8", "--seed", "3"}, spec);
  EXPECT_EQ(nsub, 8u);
  EXPECT_EQ(o.seed, 3u);
  // Sub-block counts are powers of two up to kMaxSubBlocks.
  for (const char* bad : {"32", "3", "0"}) {
    EXPECT_EXIT((void)parse({"--nsub", bad}, spec),
                ::testing::ExitedWithCode(2),
                std::string("^prog: bad value for --nsub: '") + bad + "'\n$");
  }
  // One sub-block suits a per-line detector but not a sub-blocking one.
  (void)parse({"--nsub", "1"}, spec);
  EXPECT_EQ(nsub, 1u);
  det = DetectorKind::kSubBlock;
  EXPECT_EXIT((void)parse({"--nsub", "1"}, spec), ::testing::ExitedWithCode(2),
              "^prog: bad value for --nsub: '1'\n$");
}

/// Passes the flag of table entry `f` of record `R` (CliOptions::*rec) a
/// non-default value and expects exactly that field to take it.
template <typename R, typename F>
void expect_flag_sets_its_field(R CliOptions::*rec, const F& f) {
  const R defaults{};
  using T = std::remove_cvref_t<decltype(defaults.*f.member)>;
  std::vector<const char*> args{f.info.flag};
  if constexpr (std::is_same_v<T, double>) {
    args.push_back("0.25");
  } else if constexpr (std::is_same_v<T, ProtocolMutation>) {
    args.push_back("skip-written-mask");
  } else if constexpr (std::is_same_v<T, CmPolicyKind>) {
    args.push_back("polite");
  } else if constexpr (std::is_same_v<T, OltpMix>) {
    args.push_back("d");
  } else if constexpr (!std::is_same_v<T, bool>) {
    args.push_back("7");
  }
  const CliOptions o = parse(args);
  const R& parsed = o.*rec;
  const auto check = [&](const auto& g) {
    if (std::string_view(g.info.key) == f.info.key) {
      EXPECT_NE(parsed.*g.member, defaults.*g.member) << f.info.flag;
    } else {
      EXPECT_EQ(parsed.*g.member, defaults.*g.member)
          << f.info.flag << " also set " << g.info.key;
    }
  };
  std::apply([&](const auto&... g) { (check(g), ...); },
             FieldTable<R>::fields);
}

TEST(Cli, EveryTableFlagSetsItsField) {
  const auto each = [](auto rec) {
    using R = std::remove_cvref_t<decltype(CliOptions{}.*rec)>;
    std::apply(
        [&](const auto&... f) { (expect_flag_sets_its_field(rec, f), ...); },
        FieldTable<R>::fields);
  };
  each(&CliOptions::fault);
  each(&CliOptions::oltp);
  each(&CliOptions::cm);
}

TEST(Cli, RunnerFlagsAreRejectedWhenDisabled) {
  const CliSpec spec{.groups = kCliAllGroups & ~kCliRunner};
  EXPECT_EQ(parse({"--scale", "0.5"}, spec).scale, 0.5);
  for (const char* flag : {"--csv", "--jobs", "--no-cache"}) {
    EXPECT_EXIT((void)parse({flag, "1"}, spec), ::testing::ExitedWithCode(2),
                std::string("^prog: unknown flag ") + flag +
                    " \\(see --help\\)\n$")
        << flag;
  }
}

// ---- logging ----------------------------------------------------------------

TEST(Log, LevelGateWorks) {
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  set_log_level(LogLevel::kTrace);
  EXPECT_EQ(log_level(), LogLevel::kTrace);
  ASFSIM_INFO("info message %d", 1);    // exercised, goes to stderr
  ASFSIM_TRACE("trace message %d", 2);
  set_log_level(LogLevel::kOff);
}

}  // namespace
}  // namespace asfsim
