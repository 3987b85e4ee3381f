// Harness tests: every registered figure runs cleanly through the asfsim_fig
// command line at reduced scale, the driver's own CLI behaves, and the
// figures produce the structurally-expected output.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/figures.hpp"

namespace asfsim {
namespace {

CliOptions small() {
  CliOptions o;
  o.scale = 0.25;
  return o;
}

/// Run the registered figure `name` into `os`.
int run(const char* name, const CliOptions& opts, std::ostream& os) {
  const figures::Figure* f = figures::find(name);
  if (f == nullptr) {
    ADD_FAILURE() << "no registered figure " << name;
    return -1;
  }
  return f->run(opts, os);
}

/// figures::cli_main over `args`, with "asfsim_fig" as argv[0].
int drive(std::vector<const char*> args, std::ostream& os) {
  args.insert(args.begin(), "asfsim_fig");
  return figures::cli_main(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), os);
}

// ---- every registered figure, through the driver --------------------------

std::vector<const char*> figure_names() {
  std::vector<const char*> names;
  for (const figures::Figure& f : figures::registry()) names.push_back(f.name);
  return names;
}

class EveryFigure : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryFigure, RunsThroughTheDriver) {
  std::ostringstream os;
  EXPECT_EQ(drive({GetParam(), "--scale", "0.1"}, os), 0) << os.str();
  EXPECT_FALSE(os.str().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryFigure, ::testing::ValuesIn(figure_names()),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---- the driver's CLI -------------------------------------------------------

TEST(Driver, ListPrintsExactlyTheRegisteredNames) {
  std::ostringstream os;
  EXPECT_EQ(drive({"--list"}, os), 0);
  std::string expected;
  for (const char* name : figure_names()) expected += std::string(name) + "\n";
  EXPECT_EQ(os.str(), expected);
  EXPECT_EQ(figures::registry().size(), 25u);
}

TEST(Driver, UnknownNameExitsTwoWithOneLine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::ostringstream os;
  EXPECT_EXIT((void)drive({"fig99_nope"}, os), ::testing::ExitedWithCode(2),
              "^asfsim_fig: unknown figure 'fig99_nope' \\(see --list\\)\n$");
}

TEST(Driver, MissingNameIsAUsageError) {
  std::ostringstream os;
  EXPECT_EQ(drive({"--scale", "0.1"}, os), 2);
  EXPECT_TRUE(os.str().empty());
}

TEST(Driver, FailingJobEndsInOneLineAndExitOne) {
  // A one-cycle watchdog fires in the first transaction of every job; the
  // runner's JobError must surface as a diagnostic, not std::terminate.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::ostringstream os;
  EXPECT_EXIT((void)std::exit(drive({"fig3_time_distribution", "--scale",
                                     "0.1", "--watchdog", "1", "--no-cache",
                                     "--jobs", "1"},
                                    os)),
              ::testing::ExitedWithCode(1),
              "^asfsim_fig: fig3_time_distribution: job vacation "
              "\\[[^\n]*\n$");
}

// ---- content ----------------------------------------------------------------

TEST(Figures, Table1StatesAndFig7Walkthrough) {
  std::ostringstream os;
  EXPECT_EQ(run("table1_states", small(), os), 0);
  const std::string s = os.str();
  EXPECT_NE(s.find("Non-speculative"), std::string::npos);
  EXPECT_NE(s.find("Dirty"), std::string::npos);
  EXPECT_NE(s.find("S-RD"), std::string::npos);
  EXPECT_NE(s.find("S-WR"), std::string::npos);
}

TEST(Figures, Table2ConfigProbesMatchTableII) {
  std::ostringstream os;
  EXPECT_EQ(run("table2_config", small(), os), 0)
      << "latency probes must match the configured Table II values\n"
      << os.str();
  EXPECT_NE(os.str().find("64KB"), std::string::npos);
}

TEST(Figures, Table3ListsAllBenchmarks) {
  std::ostringstream os;
  EXPECT_EQ(run("table3_benchmarks", small(), os), 0);
  for (const char* b : {"intruder", "kmeans", "labyrinth", "ssca2", "vacation",
                        "genome", "scalparc", "apriori", "fluidanimate",
                        "utilitymine"}) {
    EXPECT_NE(os.str().find(b), std::string::npos) << b;
  }
}

TEST(Figures, Fig1AllWorkloadsValidate) {
  std::ostringstream os;
  EXPECT_EQ(run("fig1_false_conflict_rate", small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("average false conflict rate"), std::string::npos);
}

TEST(Figures, Fig2Breakdown) {
  std::ostringstream os;
  EXPECT_EQ(run("fig2_conflict_type_breakdown", small(), os), 0) << os.str();
}

TEST(Figures, Fig3TimeSeries) {
  std::ostringstream os;
  EXPECT_EQ(run("fig3_time_distribution", small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("vacation"), std::string::npos);
  EXPECT_NE(os.str().find("100%"), std::string::npos);
}

TEST(Figures, Fig4LineDistribution) {
  std::ostringstream os;
  EXPECT_EQ(run("fig4_line_distribution", small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("top-5"), std::string::npos);
}

TEST(Figures, Fig5IntraLineGranularities) {
  std::ostringstream os;
  CliOptions o;
  o.scale = 0.5;
  EXPECT_EQ(run("fig5_intra_line_access", o, os), 0) << os.str();
  // kmeans accesses 4-byte floats; the other three are 8-byte dominated.
  EXPECT_NE(os.str().find("kmeans (dominant granularity: 4 bytes)"),
            std::string::npos)
      << os.str();
}

TEST(Figures, Fig8SweepRuns) {
  std::ostringstream os;
  EXPECT_EQ(run("fig8_subblock_sensitivity", small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("paper headline: 56.4%"), std::string::npos);
}

TEST(Figures, Fig9Runs) {
  std::ostringstream os;
  EXPECT_EQ(run("fig9_overall_conflict_reduction", small(), os), 0)
      << os.str();
}

TEST(Figures, Fig10Runs) {
  std::ostringstream os;
  EXPECT_EQ(run("fig10_execution_time", small(), os), 0) << os.str();
}

TEST(Figures, AblationsRun) {
  std::ostringstream os;
  EXPECT_EQ(run("ablation_waronly", small(), os), 0) << os.str();
  EXPECT_EQ(run("ablation_waw_rule", small(), os), 0) << os.str();
  EXPECT_EQ(run("ablation_overhead", small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("0.75 KB"), std::string::npos)
      << "paper §IV-E: 4 sub-blocks on a 64KB L1 cost 0.75KB";
  EXPECT_NE(os.str().find("1.17%"), std::string::npos);
}

TEST(Figures, ExtensionAblationsRun) {
  std::ostringstream os;
  CliOptions o = small();
  EXPECT_EQ(run("ablation_capacity", o, os), 0) << os.str();
  EXPECT_NE(os.str().find("yada"), std::string::npos);
  std::ostringstream os2;
  EXPECT_EQ(run("ablation_ats", o, os2), 0) << os2.str();
  std::ostringstream os3;
  EXPECT_EQ(run("ablation_cores", o, os3), 0) << os3.str();
}

TEST(Figures, CsvMirrorsAreWritten) {
  std::ostringstream os;
  CliOptions o = small();
  o.csv_dir = ::testing::TempDir();
  EXPECT_EQ(run("fig1_false_conflict_rate", o, os), 0);
  std::ifstream in(o.csv_dir + "/fig1_false_conflict_rate.csv");
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "benchmark,conflicts,false_conflicts,false_rate");
}

}  // namespace
}  // namespace asfsim
