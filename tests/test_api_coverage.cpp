// Coverage for public-API corners not exercised by the workloads:
// GRBTree::lower_bound/update misses, Task move semantics, the experiment
// runner's timeseries switch, and detector name strings.
#include <gtest/gtest.h>

#include "guest/grbtree.hpp"
#include "harness/experiment.hpp"
#include "trace/event.hpp"

namespace asfsim {
namespace {

SimConfig one_core() {
  SimConfig c;
  c.ncores = 1;
  return c;
}

Task<void> lower_bound_script(GuestCtx& c, GRBTree* tree, bool* ok) {
  for (const std::uint64_t k : {10u, 20u, 30u, 40u}) {
    co_await tree->insert(c, k, k * 100);
  }
  std::uint64_t key = 0, val = 0;
  // Exact hit.
  bool found = co_await tree->lower_bound(c, 20, &key, &val);
  if (!found || key != 20 || val != 2000) *ok = false;
  // Between keys: the next larger key wins.
  found = co_await tree->lower_bound(c, 21, &key, &val);
  if (!found || key != 30 || val != 3000) *ok = false;
  // Below the minimum.
  found = co_await tree->lower_bound(c, 1, &key, &val);
  if (!found || key != 10) *ok = false;
  // Above the maximum: not found.
  found = co_await tree->lower_bound(c, 41, &key, &val);
  if (found) *ok = false;
  // Null out-params are allowed.
  found = co_await tree->lower_bound(c, 20, nullptr, nullptr);
  if (!found) *ok = false;

  // update() on a missing key fails without inserting.
  const bool updated = co_await tree->update(c, 99, 1);
  if (updated) *ok = false;
  const bool has = co_await tree->contains(c, 99);
  if (has) *ok = false;
  // erase() on a missing key fails.
  const bool erased = co_await tree->erase(c, 99);
  if (erased) *ok = false;
}

TEST(GRBTreeApi, LowerBoundAndMissPaths) {
  Machine m(one_core(), DetectorKind::kBaseline);
  GRBTree tree = GRBTree::create(m);
  bool ok = true;
  m.spawn(0, lower_bound_script(m.ctx(0), &tree, &ok));
  m.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(tree.host_validate(m), 0);
}

TEST(TaskApi, MoveTransfersOwnership) {
  auto make = []() -> Task<int> { co_return 7; };
  Task<int> a = make();
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  Task<int> c;
  EXPECT_FALSE(c.valid());
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(c.valid());
  // Destroying an unstarted task must be safe (scope end).
}

TEST(TaskApi, VoidTaskMoveAndSelfAssignSafety) {
  auto make = []() -> Task<void> { co_return; };
  Task<void> a = make();
  Task<void>& ref = a;
  a = std::move(ref);  // self-move must not destroy the frame
  EXPECT_TRUE(a.valid());
}

TEST(ExperimentApi, TimeseriesFlagControlsRecording) {
  ExperimentConfig cfg;
  cfg.params.scale = 0.2;
  const auto off = run_experiment("counter", cfg);
  EXPECT_TRUE(off.stats.tx_start_cycles.empty());
  cfg.timeseries = true;
  const auto on = run_experiment("counter", cfg);
  EXPECT_EQ(on.stats.tx_start_cycles.size(), on.stats.tx_attempts);
  EXPECT_EQ(on.stats.false_conflict_cycles.size(), on.stats.conflicts_false);
}

TEST(ExperimentApi, WithHelperOverridesDetectorOnly) {
  ExperimentConfig cfg;
  cfg.params.seed = 42;
  cfg.params.scale = 0.5;
  const ExperimentConfig sb = cfg.with(DetectorKind::kSubBlock, 8);
  EXPECT_EQ(sb.detector, DetectorKind::kSubBlock);
  EXPECT_EQ(sb.nsub, 8u);
  EXPECT_EQ(sb.params.seed, 42u);
  EXPECT_DOUBLE_EQ(sb.params.scale, 0.5);
}

TEST(Names, EnumToStringRoundTrips) {
  EXPECT_STREQ(to_string(ConflictType::kWAR), "WAR");
  EXPECT_STREQ(to_string(ConflictType::kRAW), "RAW");
  EXPECT_STREQ(to_string(ConflictType::kWAW), "WAW");
  EXPECT_STREQ(to_string(AbortCause::kCapacity), "capacity");
  EXPECT_STREQ(to_string(AbortCause::kLockWait), "lock-wait");
  EXPECT_STREQ(to_string(DetectorKind::kSubBlockWawLine), "subblock-wawline");
  EXPECT_STREQ(to_string(SubBlockState::kSpecWrite), "S-WR");
  EXPECT_STREQ(to_string(trace::TraceEventKind::kFallback), "fallback");
}

TEST(MachineApi, PokePeekRoundTripAllSizes) {
  Machine m(one_core(), DetectorKind::kBaseline);
  const Addr a = m.galloc().alloc_lines(1);
  m.poke(a, 1, 0xAB);
  m.poke(a + 2, 2, 0xCDEF);
  m.poke(a + 4, 4, 0x12345678);
  m.poke(a + 8, 8, 0x1122334455667788ull);
  EXPECT_EQ(m.peek(a, 1), 0xABu);
  EXPECT_EQ(m.peek(a + 2, 2), 0xCDEFu);
  EXPECT_EQ(m.peek(a + 4, 4), 0x12345678u);
  EXPECT_EQ(m.peek(a + 8, 8), 0x1122334455667788ull);
}

}  // namespace
}  // namespace asfsim
