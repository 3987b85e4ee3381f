// Contention-management subsystem (src/cm/, docs/contention.md): policy
// decision units, karma saturation, the serialize fallback's guaranteed
// termination with the watchdog disarmed, the chaos starvation oracle, the
// stats-blob v5 section, SimConfig contradiction rejection, parallel-runner
// determinism under every policy, and the trace-summary forward-progress
// replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cm/policy.hpp"
#include "fault/chaos.hpp"
#include "guest/garray.hpp"
#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "runner/runner.hpp"
#include "sim/config.hpp"
#include "stats/serialize.hpp"
#include "trace/summary.hpp"

namespace asfsim {
namespace {

CmConfig cm_cfg(CmPolicyKind policy, std::uint32_t max_retries = 8,
                std::uint32_t karma = 64, bool stats = false) {
  CmConfig cm;
  cm.policy = policy;
  cm.max_retries = max_retries;
  cm.karma = karma;
  cm.stats = stats;
  return cm;
}

CmSide side(CoreId core, bool in_tx, Cycle priority) {
  CmSide s;
  s.core = core;
  s.in_tx = in_tx;
  s.priority = priority;
  return s;
}

// ---- policy decision units -------------------------------------------------

TEST(Policy, FactoryReturnsTheConfiguredKind) {
  for (const CmPolicyKind k :
       {CmPolicyKind::kRequesterWins, CmPolicyKind::kPolite,
        CmPolicyKind::kTimestamp, CmPolicyKind::kSerialize}) {
    EXPECT_EQ(make_policy(cm_cfg(k))->kind(), k) << to_string(k);
  }
}

TEST(Policy, RequesterWinsAlwaysDoomsTheVictim) {
  const auto p = make_policy(cm_cfg(CmPolicyKind::kRequesterWins));
  EXPECT_EQ(p->resolve(side(0, true, 999), side(1, true, 1)),
            CmLoser::kVictim);
  EXPECT_EQ(p->resolve(side(0, false, 0), side(1, true, 5)),
            CmLoser::kVictim);
  EXPECT_EQ(p->stated_abort_bound(8), 0u);
  EXPECT_EQ(p->serialize_after(), 0u);
}

TEST(Policy, PoliteRequesterStepsAsideOnlyInsideATransaction) {
  const auto p = make_policy(cm_cfg(CmPolicyKind::kPolite));
  EXPECT_EQ(p->resolve(side(0, true, 1), side(1, true, 999)),
            CmLoser::kRequester);
  // A non-transactional requester has nothing to retry: the victim loses.
  EXPECT_EQ(p->resolve(side(0, false, 0), side(1, true, 1)),
            CmLoser::kVictim);
  EXPECT_EQ(p->stated_abort_bound(8), 0u);
}

TEST(Policy, TimestampOldestWinsAndTiesKeepTheHistoricalOutcome) {
  const auto p = make_policy(cm_cfg(CmPolicyKind::kTimestamp));
  // Older (lower priority value) requester dooms the victim.
  EXPECT_EQ(p->resolve(side(0, true, 10), side(1, true, 50)),
            CmLoser::kVictim);
  // Younger requester steps aside.
  EXPECT_EQ(p->resolve(side(0, true, 50), side(1, true, 10)),
            CmLoser::kRequester);
  // Ties keep requester-wins.
  EXPECT_EQ(p->resolve(side(0, true, 10), side(1, true, 10)),
            CmLoser::kVictim);
  // A non-transactional requester always wins.
  EXPECT_EQ(p->resolve(side(0, false, 0), side(1, true, 0)),
            CmLoser::kVictim);
}

TEST(Policy, TimestampBoundScalesWithTheCoreCount) {
  const auto p = make_policy(cm_cfg(CmPolicyKind::kTimestamp));
  EXPECT_EQ(p->stated_abort_bound(2), 3u);
  EXPECT_EQ(p->stated_abort_bound(8), 9u);
  EXPECT_GT(p->stated_abort_bound(8), p->stated_abort_bound(2));
  EXPECT_EQ(p->serialize_after(), 0u);
}

TEST(Policy, SerializeStatesItsRetryThresholdAsTheBound) {
  const auto p = make_policy(cm_cfg(CmPolicyKind::kSerialize, 6));
  EXPECT_EQ(p->resolve(side(0, true, 99), side(1, true, 1)),
            CmLoser::kVictim);  // resolution itself stays requester-wins
  EXPECT_EQ(p->stated_abort_bound(8), 6u);
  EXPECT_EQ(p->serialize_after(), 6u);
}

// ---- guest-side: the serialize fallback's termination guarantee ------------

Task<void> hammer(GuestCtx& c, GArray64* cell, int ntx) {
  for (int i = 0; i < ntx; ++i) {
    co_await c.run_tx([&]() -> Task<void> {
      const std::uint64_t v = co_await cell->get(c, 0);
      // A long in-transaction window, as in the livelock workload: plenty
      // of time for every other core to doom this attempt.
      co_await c.work(150);
      co_await cell->set(c, 0, v + 1);
    });
  }
}

TEST(SerializeFallback, LivelockStormTerminatesWithTheWatchdogDisarmed) {
  SimConfig sim;
  sim.ncores = 4;
  sim.max_tx_retries = 0;    // classic retry-count fallback disabled
  sim.watchdog_cycles = 0;   // watchdog disarmed: no timeout safety net
  sim.cm = cm_cfg(CmPolicyKind::kSerialize, 6, 64, /*stats=*/true);
  ASSERT_EQ(sim.validate(), "");
  Machine m(sim, DetectorKind::kSubBlock, 4);
  GArray64 cell = GArray64::alloc(m.galloc(), 1);
  cell.poke(m, 0, 0);
  for (CoreId c = 0; c < sim.ncores; ++c) {
    m.spawn(c, hammer(m.ctx(c), &cell, 30));
  }
  constexpr Cycle kLimit = 5'000'000;
  const Cycle end = m.run(kLimit);
  ASSERT_LT(end, kLimit) << "storm did not terminate";
  EXPECT_EQ(cell.peek(m, 0), 4u * 30u);
  EXPECT_GT(m.stats().fallback_runs, 0u);
  EXPECT_GT(m.stats().cm_fallback_acquisitions, 0u);
  ASSERT_TRUE(m.stats().cm_enabled);
  // The policy's promise held: no core's streak exceeded the threshold
  // (retries reach the bound, then the fallback completes the tx).
  for (const std::uint64_t streak : m.stats().cm_max_consec_aborts) {
    EXPECT_LE(streak, 6u);
  }
}

TEST(Karma, SaturatesAtTheMaximumWeightWithoutWrapping) {
  // cm.karma is multiplied into a 64-bit cycle age and floored at zero;
  // the extreme weight must neither wrap priorities nor break progress.
  SimConfig sim;
  sim.ncores = 4;
  sim.cm = cm_cfg(CmPolicyKind::kTimestamp, 8, ~std::uint32_t{0});
  ASSERT_EQ(sim.validate(), "");
  std::vector<std::string> blobs;
  for (int rep = 0; rep < 2; ++rep) {
    Machine m(sim, DetectorKind::kSubBlock, 4);
    GArray64 cell = GArray64::alloc(m.galloc(), 1);
    cell.poke(m, 0, 0);
    for (CoreId c = 0; c < sim.ncores; ++c) {
      m.spawn(c, hammer(m.ctx(c), &cell, 20));
    }
    constexpr Cycle kLimit = 5'000'000;
    ASSERT_LT(m.run(kLimit), kLimit);
    EXPECT_EQ(cell.peek(m, 0), 4u * 20u);
    blobs.push_back(serialize_stats(m.stats()));
  }
  // Seed-deterministic: the same config reproduces the same stats blob.
  EXPECT_EQ(blobs[0], blobs[1]);
}

// ---- chaos starvation oracle ----------------------------------------------

ChaosCell starvation_cell(bool planted_unfair) {
  ChaosCell cell;
  cell.detector = DetectorKind::kSubBlock;
  cell.nsub = 4;
  cell.cm = cm_cfg(CmPolicyKind::kTimestamp);
  cell.max_tx_retries = 0;  // nothing caps the streak but the policy
  cell.ncells = 4;          // total conflict
  cell.ntx = 120;
  if (planted_unfair) {
    cell.fault.mutation = ProtocolMutation::kUnfairKarmaReset;
  }
  return cell;
}

TEST(StarvationOracle, PlantedUnfairPolicyTripsKStarvation) {
  const ChaosCellResult r = run_chaos_cell(starvation_cell(true));
  EXPECT_EQ(r.verdict, ChaosVerdict::kStarvation) << r.detail;
  EXPECT_NE(r.detail.find("consecutive aborts"), std::string::npos)
      << r.detail;
}

TEST(StarvationOracle, CleanTimestampStaysWithinItsStatedBound) {
  const ChaosCellResult r = run_chaos_cell(starvation_cell(false));
  EXPECT_EQ(r.verdict, ChaosVerdict::kClean) << r.detail;
  const auto bound =
      make_policy(cm_cfg(CmPolicyKind::kTimestamp))->stated_abort_bound(8);
  EXPECT_LE(r.max_streak, bound);
}

// ---- stats blob v5 ----------------------------------------------------------

Stats cm_stats_fixture() {
  Stats s;
  s.tx_attempts = 40;
  s.tx_commits = 30;
  s.tx_aborts = 10;
  s.total_cycles = 5000;
  s.cm_enabled = true;
  s.cm_max_consec_aborts = {4, 0, 9};
  s.cm_wasted_by_core = {120, 0, 777};
  s.cm_first_commit_cycle = {90, 110, 4000};
  s.cm_policy_decisions = 25;
  s.cm_requester_losses = 7;
  s.cm_fallback_acquisitions = 2;
  return s;
}

TEST(CmStatsBlob, V5SectionRoundTrips) {
  const Stats s = cm_stats_fixture();
  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v5", 0), 0u);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_TRUE(back.cm_enabled);
  EXPECT_EQ(back.cm_max_consec_aborts, s.cm_max_consec_aborts);
  EXPECT_EQ(back.cm_wasted_by_core, s.cm_wasted_by_core);
  EXPECT_EQ(back.cm_first_commit_cycle, s.cm_first_commit_cycle);
  EXPECT_EQ(back.cm_policy_decisions, 25u);
  EXPECT_EQ(back.cm_requester_losses, 7u);
  EXPECT_EQ(back.cm_fallback_acquisitions, 2u);
  // Full-blob re-serialization is byte-identical (no lossy field).
  EXPECT_EQ(serialize_stats(back), blob);
}

TEST(CmStatsBlob, DisabledSectionKeepsTheV3HeaderAndNoCmKeys) {
  Stats s;
  s.tx_commits = 5;
  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v3", 0), 0u);
  EXPECT_EQ(blob.find("cm_enabled"), std::string::npos);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_FALSE(back.cm_enabled);
}

TEST(CmStatsBlob, ProvWithoutCmKeepsTheV4Header) {
  Stats s;
  s.prov_enabled = true;
  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v4", 0), 0u);
  EXPECT_EQ(blob.find("cm_enabled"), std::string::npos);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_TRUE(back.prov_enabled);
  EXPECT_FALSE(back.cm_enabled);
}

TEST(CmStatsBlob, V5ComposesWithTheProvenanceSection) {
  Stats s = cm_stats_fixture();
  s.prov_enabled = true;
  s.prov_site_names = {"oltp.records"};
  s.prov_site_table = {64, 16, 1024, 5, 4, 3, 2, 1, 0, 6, 900};
  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v5", 0), 0u);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_TRUE(back.prov_enabled);
  EXPECT_TRUE(back.cm_enabled);
  EXPECT_EQ(back.prov_site_names, s.prov_site_names);
  EXPECT_EQ(back.prov_site_table, s.prov_site_table);
  EXPECT_EQ(back.cm_wasted_by_core, s.cm_wasted_by_core);
}

TEST(CmStatsBlob, TruncatedV5BlobIsRejected) {
  const std::string blob = serialize_stats(cm_stats_fixture());
  Stats junk;
  EXPECT_FALSE(deserialize_stats(blob.substr(0, blob.size() - 4), junk));
}

// ---- SimConfig contradiction rejection --------------------------------------

TEST(CmValidate, EveryPolicyIsValidUnderTheDefaultConfig) {
  for (const CmPolicyKind k :
       {CmPolicyKind::kRequesterWins, CmPolicyKind::kPolite,
        CmPolicyKind::kTimestamp, CmPolicyKind::kSerialize}) {
    SimConfig sim;
    sim.cm.policy = k;
    EXPECT_EQ(sim.validate(), "") << to_string(k);
  }
}

TEST(CmValidate, RejectsAZeroRetryThreshold) {
  SimConfig sim;
  sim.cm.max_retries = 0;
  EXPECT_NE(sim.validate().find("cm.max_retries"), std::string::npos);
  sim.cm.policy = CmPolicyKind::kSerialize;
  EXPECT_NE(sim.validate().find("serialize fallback"), std::string::npos);
}

TEST(CmValidate, RejectsSerializeWithTheFallbackPathDisabled) {
  SimConfig sim;
  sim.cm.policy = CmPolicyKind::kSerialize;
  sim.max_tx_retries = 0;
  sim.max_capacity_aborts = 0;
  EXPECT_NE(sim.validate().find("max_capacity_aborts"), std::string::npos);
}

TEST(CmValidate, RejectsAWatchdogTighterThanTheSerializeFloor) {
  SimConfig sim;
  sim.cm.policy = CmPolicyKind::kSerialize;
  sim.cm.max_retries = 8;
  const Cycle floor = Cycle{8 + 1} * (sim.abort_latency + sim.backoff_base);
  sim.watchdog_cycles = floor - 1;
  EXPECT_NE(sim.validate().find("watchdog_cycles"), std::string::npos);
  sim.watchdog_cycles = floor;
  EXPECT_EQ(sim.validate(), "");
}

// ---- runner determinism under every policy ----------------------------------

runner::RunnerOptions uncached_opts(unsigned jobs) {
  runner::RunnerOptions o;
  o.jobs = jobs;
  o.use_cache = false;
  o.manifest_path = "-";
  o.progress = runner::RunnerOptions::Progress::kOff;
  return o;
}

/// serialize_stats walks the Stats field table, whose static_assert makes
/// it cover every Stats field, so string equality is full-report equality.
std::vector<std::string> run_policy_matrix(unsigned jobs) {
  runner::Runner r(uncached_opts(jobs));
  std::vector<std::shared_future<ExperimentResult>> futs;
  for (const CmPolicyKind k :
       {CmPolicyKind::kRequesterWins, CmPolicyKind::kPolite,
        CmPolicyKind::kTimestamp, CmPolicyKind::kSerialize}) {
    for (const char* w : {"counter", "livelock"}) {
      ExperimentConfig cfg;
      cfg.params.threads = 4;
      cfg.params.scale = 0.25;
      cfg.sim.ncores = 4;
      cfg.detector = DetectorKind::kSubBlock;
      cfg.nsub = 4;
      cfg.sim.cm = cm_cfg(k, 8, 64, /*stats=*/true);
      futs.push_back(r.submit(w, cfg));
    }
  }
  std::vector<std::string> out;
  out.reserve(futs.size());
  for (auto& f : futs) {
    const ExperimentResult res = f.get();
    EXPECT_TRUE(res.ok()) << res.validation_error;
    out.push_back(serialize_stats(res.stats));
  }
  return out;
}

TEST(CmDeterminism, SerialAndJobs8AreByteIdenticalUnderEveryPolicy) {
  const auto serial = run_policy_matrix(1);
  const auto parallel = run_policy_matrix(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
}

TEST(CmRun, EnablingAccountingDoesNotPerturbTheSimulation) {
  ExperimentConfig cfg;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  cfg.detector = DetectorKind::kSubBlock;
  const ExperimentResult off = run_experiment("counter", cfg);
  cfg.sim.cm.stats = true;
  const ExperimentResult on = run_experiment("counter", cfg);
  ASSERT_TRUE(off.ok() && on.ok());
  EXPECT_FALSE(off.stats.cm_enabled);
  EXPECT_TRUE(on.stats.cm_enabled);
  EXPECT_EQ(off.stats.total_cycles, on.stats.total_cycles);
  EXPECT_EQ(off.stats.tx_commits, on.stats.tx_commits);
  EXPECT_EQ(off.stats.tx_aborts, on.stats.tx_aborts);
}

TEST(CmRun, PoliteRoutesConflictsThroughThePolicy) {
  ExperimentConfig cfg;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.sim.cm = cm_cfg(CmPolicyKind::kPolite, 8, 64, /*stats=*/true);
  const ExperimentResult r = run_experiment("livelock", cfg);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  EXPECT_GT(r.stats.cm_policy_decisions, 0u);
  EXPECT_GT(r.stats.cm_requester_losses, 0u);
}

// ---- trace-summary forward-progress replay ----------------------------------

trace::TraceEvent ev_abort(CoreId core, Cycle cycle, AbortCause cause) {
  trace::TraceEvent e;
  e.kind = trace::TraceEventKind::kAbort;
  e.core = core;
  e.cycle = cycle;
  e.cause = cause;
  return e;
}

TEST(SummaryStarvation, ReplaysStreaksWithTheRuntimesAccountingRules) {
  trace::TraceSummary s;
  EXPECT_FALSE(s.has_cm_events());
  // Three consecutive conflict aborts on core 0, a lock-wait in between
  // (neither counts nor resets), then a commit resets the streak.
  s.add(ev_abort(0, 100, AbortCause::kConflict));
  s.add(ev_abort(0, 200, AbortCause::kLockWait));
  s.add(ev_abort(0, 300, AbortCause::kConflict));
  s.add(ev_abort(0, 400, AbortCause::kConflict));
  trace::TraceEvent commit;
  commit.kind = trace::TraceEventKind::kCommit;
  commit.core = 0;
  commit.cycle = 500;
  s.add(commit);
  s.add(ev_abort(0, 600, AbortCause::kConflict));
  ASSERT_GE(s.max_consec_aborts.size(), 1u);
  EXPECT_EQ(s.max_consec_aborts[0], 3u);
  EXPECT_EQ(s.consec_aborts[0], 1u);  // post-commit streak

  // Policy decisions: loser == other marks a requester loss.
  trace::TraceEvent pol;
  pol.kind = trace::TraceEventKind::kPolicy;
  pol.core = 1;
  pol.other = 2;
  pol.loser = 2;
  pol.cycle = 700;
  s.add(pol);
  EXPECT_TRUE(s.has_cm_events());
  EXPECT_EQ(s.requester_losses, 1u);

  std::ostringstream os;
  trace::print_summary(s, os, 5);
  EXPECT_NE(os.str().find("Forward progress"), std::string::npos);
  EXPECT_NE(os.str().find("Max consecutive aborts"), std::string::npos);
}

TEST(SummaryStarvation, FallbackEventResetsTheStreakAndMarksCmActivity) {
  trace::TraceSummary s;
  s.add(ev_abort(2, 10, AbortCause::kConflict));
  s.add(ev_abort(2, 20, AbortCause::kConflict));
  trace::TraceEvent fb;
  fb.kind = trace::TraceEventKind::kFallback;
  fb.core = 2;
  fb.cycle = 30;
  s.add(fb);
  EXPECT_EQ(s.max_consec_aborts[2], 2u);
  EXPECT_EQ(s.consec_aborts[2], 0u);
  EXPECT_FALSE(s.has_cm_events());  // kFallback alone is not a cm event

  trace::TraceEvent acq;
  acq.kind = trace::TraceEventKind::kFallbackAcquired;
  acq.core = 2;
  acq.cycle = 40;
  s.add(acq);
  EXPECT_TRUE(s.has_cm_events());
}

// ---- mutation names ---------------------------------------------------------

TEST(CmMutations, PolicyMutationNamesRoundTrip) {
  for (const ProtocolMutation m :
       {ProtocolMutation::kUnfairKarmaReset,
        ProtocolMutation::kFallbackLockLeak,
        ProtocolMutation::kSerializeSkipsValidation}) {
    ProtocolMutation parsed = ProtocolMutation::kNone;
    ASSERT_TRUE(parse_mutation(to_string(m), parsed)) << to_string(m);
    EXPECT_EQ(parsed, m);
  }
}

}  // namespace
}  // namespace asfsim
