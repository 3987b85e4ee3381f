// Fault-injection subsystem: SimConfig validation, backoff saturation,
// FaultPlan determinism, zero-cost-when-disabled, and the JobSpec v2 cache
// keying of every robustness knob (docs/robustness.md).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "htm/backoff.hpp"
#include "runner/job_spec.hpp"
#include "runner/runner.hpp"
#include "sim/config.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

// ---- SimConfig::validate ---------------------------------------------------

TEST(SimConfigValidate, DefaultConfigIsValid) {
  EXPECT_EQ(SimConfig{}.validate(), "");
}

TEST(SimConfigValidate, RejectsBrokenGeometry) {
  {
    SimConfig c;
    c.ncores = 0;
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l1.size_bytes = 0;
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l1.ways = 0;
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l2.line_bytes = 48;  // not a power of two
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l1.size_bytes = 1000;  // not divisible by line*ways
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l2.line_bytes = 128;  // a power of two, but not the 64-byte line
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l3.size_bytes = 3 * 64 * 16 * 512;  // 1536 sets: not a power of two
    EXPECT_NE(c.validate(), "");
  }
  {
    SimConfig c;
    c.l2.size_bytes = 4 * 64 * 16;  // 4 sets: a 32-bit tag may not fit
    EXPECT_NE(c.validate(), "");
    c.l2.size_bytes = 8 * 64 * 16;  // the smallest L2/L3 that fits
    EXPECT_EQ(c.validate(), "");
  }
  {
    SimConfig c;
    c.l1.size_bytes = 2 * 64 * 2;  // a 2-set L1 is fine: it keeps full tags
    EXPECT_EQ(c.validate(), "");
  }
}

TEST(SimConfigValidate, RejectsBadSubBlockCounts) {
  // The sub-block count belongs to the Detector, so an otherwise valid
  // config is still refused at Machine construction when it is bad.
  const SimConfig c;
  ASSERT_EQ(c.validate(), "");
  EXPECT_THROW(Machine m(c, DetectorKind::kSubBlock, 0), std::invalid_argument);
  EXPECT_THROW(Machine m(c, DetectorKind::kSubBlock, 3),  // not a power of two
               std::invalid_argument);
  EXPECT_THROW(Machine m(c, DetectorKind::kSubBlock, 32),  // > kMaxSubBlocks
               std::invalid_argument);
  EXPECT_NO_THROW(Machine m(c, DetectorKind::kSubBlock, 4));
  EXPECT_NO_THROW(Machine m(c, DetectorKind::kSubBlock, 16));  // kMaxSubBlocks
}

TEST(SimConfigValidate, RejectsZeroBackoffBase) {
  SimConfig c;
  c.backoff_base = 0;
  EXPECT_NE(c.validate(), "");
}

TEST(SimConfigValidate, RejectsFallbackWithZeroCapacityBudget) {
  SimConfig c;
  c.max_capacity_aborts = 0;  // fallback enabled but unreachable
  EXPECT_NE(c.validate(), "");
  c.max_tx_retries = 0;  // fallback disabled: now fine
  EXPECT_EQ(c.validate(), "");
}

TEST(SimConfigValidate, RejectsOutOfRangeFaultRates) {
  SimConfig c;
  c.fault.spurious_abort_rate = 1.5;
  EXPECT_NE(c.validate(), "");
  c.fault.spurious_abort_rate = -0.1;
  EXPECT_NE(c.validate(), "");
  c.fault.spurious_abort_rate = 1.0;
  EXPECT_EQ(c.validate(), "");
}

TEST(SimConfigValidate, MachineRejectsInvalidConfigsAtConstruction) {
  SimConfig c;
  c.ncores = 0;
  EXPECT_THROW(Machine m(c, DetectorKind::kBaseline, 1),
               std::invalid_argument);
  EXPECT_THROW(Machine m(SimConfig{}, DetectorKind::kSubBlock, 3),
               std::invalid_argument);
  // Geometry is checked before the caches are built, so the config error
  // is what surfaces, not a cache constructor's.
  c = SimConfig{};
  c.l2.line_bytes = 128;
  try {
    Machine m(c, DetectorKind::kBaseline, 1);
    ADD_FAILURE() << "an L2 with 128-byte lines must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("SimConfig: l2:", 0), 0u)
        << e.what();
  }
}

// ---- backoff saturation ----------------------------------------------------

TEST(Backoff, SaturatesInsteadOfOverflowing) {
  SimConfig c;
  c.backoff_base = Cycle{1} << 60;
  c.backoff_cap_shift = 200;  // base << shift would wrap many times over
  BackoffManager b(c, /*seed=*/1);
  for (std::uint32_t retry = 0; retry < 300; ++retry) {
    const Cycle w = b.wait_for(retry);
    EXPECT_GT(w, 0u) << "retry " << retry;  // a zero wait = busy-spin
    EXPECT_LE(w, ~Cycle{0} >> 1) << "retry " << retry;
  }
}

TEST(Backoff, SmallWindowsStillGrowExponentially) {
  SimConfig c;  // base 32, cap 8
  BackoffManager b(c, 1);
  // Window at retry r is 32 << min(r, 8); the draw is in [w/2, w].
  EXPECT_LE(b.wait_for(0), 32u);
  EXPECT_GE(b.wait_for(8), (32u << 8) / 2);
  EXPECT_LE(b.wait_for(20), 32u << 8);  // capped
}

// ---- FaultPlan determinism -------------------------------------------------

FaultConfig some_faults() {
  FaultConfig fc;
  fc.spurious_abort_rate = 0.25;
  fc.commit_abort_rate = 0.1;
  fc.evict_rate = 0.05;
  fc.probe_jitter = 7;
  fc.sched_jitter = 3;
  return fc;
}

TEST(FaultPlan, SameSeedSameDecisionStream) {
  FaultPlan a(some_faults(), 42, 4);
  FaultPlan b(some_faults(), 42, 4);
  for (int i = 0; i < 2000; ++i) {
    const CoreId core = static_cast<CoreId>(i % 4);
    EXPECT_EQ(a.spurious_abort(core), b.spurious_abort(core));
    EXPECT_EQ(a.commit_abort(core), b.commit_abort(core));
    EXPECT_EQ(a.forced_eviction(core), b.forced_eviction(core));
    EXPECT_EQ(a.probe_jitter(core), b.probe_jitter(core));
    EXPECT_EQ(a.sched_jitter(core), b.sched_jitter(core));
  }
  EXPECT_EQ(a.counters().spurious_aborts, b.counters().spurious_aborts);
  EXPECT_EQ(a.counters().probe_jitter_cycles, b.counters().probe_jitter_cycles);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan a(some_faults(), 1, 1);
  FaultPlan b(some_faults(), 2, 1);
  int disagreements = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.spurious_abort(0) != b.spurious_abort(0)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultPlan, CoreStreamsAreIndependent) {
  // Draining core 0 must not change what core 1 sees.
  FaultPlan a(some_faults(), 7, 2);
  FaultPlan b(some_faults(), 7, 2);
  for (int i = 0; i < 500; ++i) (void)a.spurious_abort(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.spurious_abort(1), b.spurious_abort(1));
  }
}

TEST(FaultPlan, RateExtremesAndCounters) {
  FaultConfig always;
  always.spurious_abort_rate = 1.0;
  FaultPlan p(always, 1, 1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(p.spurious_abort(0));
  EXPECT_EQ(p.counters().spurious_aborts, 100u);
  EXPECT_EQ(p.counters().commit_aborts, 0u);

  FaultConfig never;  // all rates zero
  FaultPlan q(never, 1, 1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(q.spurious_abort(0));
  EXPECT_EQ(q.counters().spurious_aborts, 0u);
  EXPECT_EQ(q.probe_jitter(0), 0u);
}

// ---- zero cost when disabled ----------------------------------------------

TEST(FaultPlan, CleanMachineCarriesNoPlan) {
  Machine m(SimConfig{}, DetectorKind::kSubBlock, 4);
  EXPECT_EQ(m.fault_plan(), nullptr);
}

TEST(FaultPlan, FaultyMachineCarriesOne) {
  SimConfig c;
  c.fault.probe_jitter = 2;
  Machine m(c, DetectorKind::kSubBlock, 4);
  ASSERT_NE(m.fault_plan(), nullptr);
  EXPECT_EQ(m.fault_plan()->config().probe_jitter, 2u);
}

// ---- end-to-end determinism with faults ------------------------------------

ExperimentConfig faulty_config() {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  cfg.sim.fault = some_faults();
  cfg.sim.fault.spurious_abort_rate = 0.01;  // keep the run short
  cfg.sim.fault.commit_abort_rate = 0.02;
  return cfg;
}

TEST(FaultDeterminism, RepeatRunsAreByteIdentical) {
  const ExperimentResult a = run_experiment("counter", faulty_config());
  const ExperimentResult b = run_experiment("counter", faulty_config());
  ASSERT_TRUE(a.ok()) << a.validation_error;
  EXPECT_EQ(serialize_stats(a.stats), serialize_stats(b.stats));
}

TEST(FaultDeterminism, StatsAreIdenticalAcrossWorkerCounts) {
  // The acceptance criterion: fault runs are byte-deterministic whether the
  // runner executes them on 1 worker or 8.
  std::vector<std::string> serial, parallel;
  for (const unsigned jobs : {1u, 8u}) {
    runner::RunnerOptions opts;
    opts.jobs = jobs;
    opts.use_cache = false;
    opts.manifest_path = "-";
    opts.progress = runner::RunnerOptions::Progress::kOff;
    runner::Runner r(opts);
    auto& out = jobs == 1 ? serial : parallel;
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      ExperimentConfig cfg = faulty_config();
      cfg.params.seed = seed;
      out.push_back(serialize_stats(r.get("counter", cfg).stats));
    }
  }
  EXPECT_EQ(serial, parallel);
}

TEST(FaultDeterminism, InjectionActuallyChangesTheRun) {
  ExperimentConfig clean = faulty_config();
  clean.sim.fault = FaultConfig{};
  const ExperimentResult with = run_experiment("counter", faulty_config());
  const ExperimentResult without = run_experiment("counter", clean);
  EXPECT_NE(serialize_stats(with.stats), serialize_stats(without.stats));
}

// ---- JobSpec v2 cache keying -----------------------------------------------

TEST(JobSpecV2, EveryRobustnessKnobChangesTheHash) {
  ExperimentConfig base;
  const auto base_spec = runner::make_job_spec("counter", base);
  EXPECT_NE(base_spec.canonical.find("asfsim-jobspec v6"), std::string::npos);

  std::vector<runner::JobSpec> variants;
  {
    auto c = base;
    c.sim.fault.spurious_abort_rate = 0.01;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.fault.evict_rate = 0.01;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.fault.commit_abort_rate = 0.01;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.fault.probe_jitter = 1;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.fault.sched_jitter = 1;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.fault.mutation = ProtocolMutation::kSkipCommitValidation;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.max_tx_retries = 5;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  {
    auto c = base;
    c.sim.watchdog_cycles = 1000;
    variants.push_back(runner::make_job_spec("counter", c));
  }
  for (const auto& v : variants) {
    EXPECT_NE(v.hash_hex, base_spec.hash_hex) << v.canonical;
  }
}

TEST(JobSpecV2, HostWallLimitDoesNotChangeTheHash) {
  ExperimentConfig a;
  ExperimentConfig b;
  b.wall_limit_s = 30.0;  // host-side only: same simulation, same cache key
  EXPECT_EQ(runner::make_job_spec("counter", a).hash_hex,
            runner::make_job_spec("counter", b).hash_hex);
}

// ---- mutation name parsing -------------------------------------------------

TEST(MutationNames, RoundTripAndRejectUnknown) {
  for (const ProtocolMutation m :
       {ProtocolMutation::kDropDirtySubblock,
        ProtocolMutation::kForgetInvalidatedSpecinfo,
        ProtocolMutation::kSkipWrittenMask,
        ProtocolMutation::kSkipCommitValidation}) {
    ProtocolMutation back = ProtocolMutation::kNone;
    ASSERT_TRUE(parse_mutation(to_string(m), back));
    EXPECT_EQ(back, m);
  }
  ProtocolMutation out = ProtocolMutation::kSkipWrittenMask;
  EXPECT_TRUE(parse_mutation("none", out));
  EXPECT_EQ(out, ProtocolMutation::kNone);
  EXPECT_TRUE(parse_mutation("", out));
  EXPECT_FALSE(parse_mutation("drop-everything", out));
}

}  // namespace
}  // namespace asfsim
