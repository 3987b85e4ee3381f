// Unit + integration tests for the ATS extension (adaptive transaction
// scheduling, DESIGN.md extension; asfsim_fig ablation_ats).
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "htm/scheduler.hpp"

namespace asfsim {
namespace {

TEST(AdaptiveScheduler, ContentionEmaTracksOutcomes) {
  AdaptiveScheduler s(2, 0.5, 0.5);
  EXPECT_FALSE(s.should_serialize(0));
  s.on_tx_end(0, true);   // CI = 0.5
  EXPECT_FALSE(s.should_serialize(0)) << "threshold is strict";
  s.on_tx_end(0, true);   // CI = 0.75
  EXPECT_TRUE(s.should_serialize(0));
  s.on_tx_end(0, false);  // CI = 0.375
  EXPECT_FALSE(s.should_serialize(0));
  EXPECT_FALSE(s.should_serialize(1)) << "per-core state";
}

TEST(AdaptiveScheduler, SlotIsExclusiveAndReentrant) {
  AdaptiveScheduler s(3, 0.3, 0.5);
  EXPECT_TRUE(s.try_acquire(0));
  EXPECT_TRUE(s.try_acquire(0)) << "holder may re-acquire";
  EXPECT_FALSE(s.try_acquire(1));
  s.release(2);  // non-holder release is a no-op
  EXPECT_FALSE(s.try_acquire(1));
  s.release(0);
  EXPECT_TRUE(s.try_acquire(1));
}

TEST(AdaptiveScheduler, DisabledByDefault) {
  ExperimentConfig cfg;
  cfg.params.scale = 0.2;
  const auto r = run_experiment("counter", cfg);
  EXPECT_EQ(r.stats.ats_serialized, 0u);
}

TEST(AdaptiveScheduler, EngagesUnderContentionAndPreservesResults) {
  ExperimentConfig on;
  on.detector = DetectorKind::kBaseline;
  on.sim.enable_ats = true;
  on.sim.ats_threshold = 0.3;
  on.params.scale = 0.5;
  const auto r = run_experiment("counter", on);
  EXPECT_TRUE(r.ok()) << r.validation_error;
  EXPECT_GT(r.stats.ats_serialized, 0u)
      << "the contended counter workload must trip the scheduler";
}

TEST(AdaptiveScheduler, SerializationReducesConflictsOnHotWorkloads) {
  ExperimentConfig off;
  off.detector = DetectorKind::kBaseline;
  off.params.scale = 0.5;
  ExperimentConfig on = off;
  on.sim.enable_ats = true;
  on.sim.ats_threshold = 0.3;
  const auto base = run_experiment("counter", off);
  const auto ats = run_experiment("counter", on);
  EXPECT_TRUE(ats.ok()) << ats.validation_error;
  EXPECT_LT(ats.stats.conflicts_total, base.stats.conflicts_total)
      << "serializing storming cores must cut conflicts";
}

TEST(AdaptiveScheduler, ComposesWithSubBlocking) {
  for (const char* w : {"bank", "ssca2"}) {
    ExperimentConfig cfg;
    cfg.detector = DetectorKind::kSubBlock;
    cfg.sim.enable_ats = true;
    cfg.sim.ats_threshold = 0.4;
    cfg.params.scale = 0.3;
    const auto r = run_experiment(w, cfg);
    EXPECT_TRUE(r.ok()) << w << ": " << r.validation_error;
  }
}

}  // namespace
}  // namespace asfsim
