// Live coherence-invariant auditing: a dedicated auditor guest thread runs
// MemorySystem::check_invariants() every few hundred cycles WHILE real
// workloads execute, under several detectors.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fault/plan.hpp"
#include "guest/machine.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

Task<void> auditor(GuestCtx& c, Machine* m, std::uint32_t workers,
                   std::string* violation, int* audits) {
  for (;;) {
    bool all_done = true;
    for (CoreId w = 0; w < workers; ++w) {
      if (!m->kernel().core_done(w)) all_done = false;
    }
    if (all_done) co_return;
    const std::string err = m->mem().check_invariants();
    ++*audits;
    if (!err.empty()) {
      *violation = err;
      co_return;
    }
    co_await c.wait(300);
  }
}

struct AuditCase {
  const char* workload;
  DetectorKind detector;
};

class LiveInvariants : public ::testing::TestWithParam<AuditCase> {};

TEST_P(LiveInvariants, HoldThroughoutTheRun) {
  const auto& [name, det] = GetParam();
  SimConfig sim;
  sim.ncores = 5;  // 4 workers + 1 auditor
  Machine m(sim, det, 4);

  auto wl = make_workload(name);
  WorkloadParams p;
  p.threads = 4;
  p.scale = 0.3;
  wl->setup(m, p);

  std::string violation;
  int audits = 0;
  m.spawn(4, auditor(m.ctx(4), &m, 4, &violation, &audits));
  m.run(Cycle{1} << 34);

  EXPECT_TRUE(violation.empty()) << violation;
  EXPECT_GT(audits, 10) << "the auditor must actually have sampled the run";
  EXPECT_EQ(wl->validate(m), "");
  EXPECT_EQ(m.mem().check_invariants(), "") << "and at quiescence";
}

std::string audit_name(const ::testing::TestParamInfo<AuditCase>& info) {
  std::string n = info.param.workload;
  n += "_";
  n += to_string(info.param.detector);
  for (auto& ch : n) {
    if (ch == '-') ch = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndDetectors, LiveInvariants,
    ::testing::Values(AuditCase{"bank", DetectorKind::kBaseline},
                      AuditCase{"bank", DetectorKind::kSubBlock},
                      AuditCase{"counter", DetectorKind::kSubBlock},
                      AuditCase{"counter", DetectorKind::kSubBlockWawLine},
                      AuditCase{"ssca2", DetectorKind::kSubBlock},
                      AuditCase{"vacation", DetectorKind::kSubBlock},
                      AuditCase{"genome", DetectorKind::kWarOnly},
                      AuditCase{"kmeans", DetectorKind::kPerfect}),
    audit_name);

TEST(Invariants, CleanMachinePasses) {
  Machine m(SimConfig{}, DetectorKind::kSubBlock, 4);
  EXPECT_EQ(m.mem().check_invariants(), "");
}

// ---- the dense speculative-line list vs the two metadata erase sites -------

/// Reads sub-block 0 of `line` in a transaction and parks; a remote store
/// to another sub-block lands meanwhile. Records the transaction's
/// speculative line count and an invariant audit after the store.
Task<void> parked_reader(GuestCtx& c, Addr line, std::uint64_t* lines_after,
                         std::string* audit) {
  co_await c.run_tx([&c, line, lines_after, audit]() -> Task<void> {
    co_await c.load_u64(line);
    co_await c.wait(5000);
    *lines_after = c.mem().spec_lines(c.core());
    *audit = c.mem().check_invariants();
  });
}

Task<void> late_store(GuestCtx& c, Addr a) {
  co_await c.wait(2000);
  co_await c.store_u64(a, 7);
}

TEST(Invariants, SpecLineListDropsForgottenSpecinfo) {
  // A false-conflict store invalidates the reader's line; sub-blocking
  // retains the speculative info, forget-invalidated-specinfo erases it
  // (and must erase it from the dense line list too).
  for (const bool mutated : {false, true}) {
    SCOPED_TRACE(mutated ? "forget-invalidated-specinfo" : "clean");
    SimConfig sim;
    sim.ncores = 2;
    if (mutated) {
      sim.fault.mutation = ProtocolMutation::kForgetInvalidatedSpecinfo;
    }
    Machine m(sim, DetectorKind::kSubBlock, 4);
    const Addr line = m.galloc().alloc(kLineBytes, kLineBytes);
    std::uint64_t lines_after = 99;
    std::string audit = "not run";
    m.spawn(0, parked_reader(m.ctx(0), line, &lines_after, &audit));
    m.spawn(1, late_store(m.ctx(1), line + 32));
    m.run();
    // The fallback-lock subscription is the transaction's other line.
    EXPECT_EQ(lines_after, mutated ? 1u : 2u);
    EXPECT_EQ(audit, "");
    EXPECT_EQ(m.mem().check_invariants(), "");
  }
}

TEST(Invariants, SpecLineListHoldsUnderForcedEvictionsAndForgottenSpecinfo) {
  // Kernel-audited (as the chaos harness audits) workload runs with
  // --fault-evict, the forget-invalidated-specinfo mutation, and both.
  struct Case {
    double evict_rate;
    ProtocolMutation mutation;
  };
  for (const Case& k :
       {Case{0.02, ProtocolMutation::kNone},
        Case{0.0, ProtocolMutation::kForgetInvalidatedSpecinfo},
        Case{0.02, ProtocolMutation::kForgetInvalidatedSpecinfo}}) {
    SCOPED_TRACE(std::to_string(k.evict_rate) + " " + to_string(k.mutation));
    SimConfig sim;
    sim.ncores = 4;
    sim.fault.evict_rate = k.evict_rate;
    sim.fault.mutation = k.mutation;
    Machine m(sim, DetectorKind::kSubBlock, 4);
    auto wl = make_workload("vacation");
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.3;
    wl->setup(m, p);
    int audits = 0;
    m.kernel().set_audit(200, [&m, &audits] {
      ++audits;
      const std::string err = m.mem().check_invariants();
      if (!err.empty()) throw std::runtime_error(err);
    });
    EXPECT_NO_THROW(m.run(Cycle{1} << 34));
    EXPECT_GT(audits, 10);
    EXPECT_EQ(m.mem().check_invariants(), "");
    if (k.evict_rate > 0.0) {
      EXPECT_GT(m.fault_plan()->counters().forced_evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace asfsim
