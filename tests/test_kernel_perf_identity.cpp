// Golden A/B suite for the kernel hot-path speed program (docs/performance.md).
//
// The perf work (arena'd coroutine frames, SoA tag/state layout, branchless
// sub-block transitions, aligned per-core counters) must not change a single
// simulated outcome. This suite pins that contract: every registered workload
// runs at small scale and both its canonical stats blob AND its full trace
// JSONL timeline are hashed against goldens captured from the pre-optimization
// kernel. Any byte that moves — a counter, a conflict cycle, an event order —
// fails the suite.
//
// Regenerating goldens (ONLY legitimate when the simulated semantics
// deliberately change, never for a perf refactor):
//   ASFSIM_WRITE_GOLDEN=1 ./test_kernel_perf_identity
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/subblock_state.hpp"
#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "sim/random.hpp"
#include "stats/serialize.hpp"
#include "workloads/workload.hpp"

#ifndef ASFSIM_GOLDEN_DIR
#define ASFSIM_GOLDEN_DIR "."
#endif

namespace asfsim {
namespace {

// FNV-1a 64-bit: dependency-free, stable across platforms.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Cell {
  std::string workload;
  DetectorKind detector;
  std::uint32_t nsub;
};

// Every registered workload under the paper's headline detector, plus a
// detector sweep over two representative workloads (one STAMP port, one
// OLTP preset) so the baseline / WAW-line / no-dirty / war-only / perfect
// probe paths are all pinned too.
std::vector<Cell> cells() {
  std::vector<Cell> out;
  for (const WorkloadInfo& w : workload_registry()) {
    out.push_back({w.name, DetectorKind::kSubBlock, 4});
  }
  for (const char* wl : {"vacation", "oltp"}) {
    out.push_back({wl, DetectorKind::kBaseline, 1});
    out.push_back({wl, DetectorKind::kSubBlockWawLine, 4});
    out.push_back({wl, DetectorKind::kSubBlockNoDirty, 4});
    out.push_back({wl, DetectorKind::kWarOnly, 1});
    out.push_back({wl, DetectorKind::kPerfect, 1});
    out.push_back({wl, DetectorKind::kSubBlock, 8});
  }
  return out;
}

ExperimentConfig small_config(const std::string& workload, DetectorKind det,
                              std::uint32_t nsub) {
  ExperimentConfig cfg;
  cfg.detector = det;
  cfg.nsub = nsub;
  cfg.params.threads = 4;
  cfg.sim.ncores = 4;
  cfg.params.seed = 7;
  cfg.params.scale = 0.25;
  if (workload == "oltp") {
    // Contended-KV shape: small hot table, update-heavy mix, strong skew.
    cfg.params.oltp.records = 256;
    cfg.params.oltp.payload_bytes = 16;
    cfg.params.oltp.tx_len = 4;
    cfg.params.oltp.tx_per_thread = 200;
    cfg.params.oltp.theta = 1.1;
    cfg.params.oltp.mix = OltpMix::kA;
  }
  return cfg;
}

std::string cell_key(const Cell& c) {
  std::string key = c.workload;
  key += '/';
  key += to_string(c.detector);
  if (c.nsub != 1) key += "-" + std::to_string(c.nsub);
  return key;
}

std::string golden_path() {
  return std::string(ASFSIM_GOLDEN_DIR) + "/kernel_identity.golden";
}

std::map<std::string, std::pair<std::string, std::string>> load_goldens() {
  std::map<std::string, std::pair<std::string, std::string>> out;
  std::ifstream is(golden_path());
  std::string key, stats_h, trace_h;
  while (is >> key >> stats_h >> trace_h) out[key] = {stats_h, trace_h};
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(KernelPerfIdentity, StatsAndTraceMatchPreOptimizationGoldens) {
  const bool write = std::getenv("ASFSIM_WRITE_GOLDEN") != nullptr;
  const auto goldens = load_goldens();
  const std::filesystem::path tmp = ::testing::TempDir();
  std::ostringstream regen;
  std::vector<std::string> mismatches;

  for (const Cell& c : cells()) {
    const std::string key = cell_key(c);
    const ExperimentConfig cfg = small_config(c.workload, c.detector, c.nsub);
    TraceOptions trace;
    trace.format = TraceFormat::kJsonl;
    trace.path = (tmp / ("identity-" + std::to_string(fnv1a(key)) + ".jsonl"))
                     .string();
    const ExperimentResult r = run_experiment(c.workload, cfg, trace);
    ASSERT_TRUE(r.ok()) << key << ": " << r.validation_error;

    const std::string stats_h = hex(fnv1a(serialize_stats(r.stats)));
    const std::string trace_h = hex(fnv1a(slurp(trace.path)));
    std::filesystem::remove(trace.path);
    regen << key << ' ' << stats_h << ' ' << trace_h << '\n';

    if (write) continue;
    const auto it = goldens.find(key);
    if (it == goldens.end()) {
      mismatches.push_back(key + ": no golden entry");
    } else if (it->second != std::make_pair(stats_h, trace_h)) {
      mismatches.push_back(key + ": stats " + it->second.first + " -> " +
                           stats_h + ", trace " + it->second.second + " -> " +
                           trace_h);
    }
  }

  if (write) {
    std::ofstream os(golden_path(), std::ios::trunc);
    os << regen.str();
    ASSERT_TRUE(os.good()) << "cannot write " << golden_path();
    GTEST_SKIP() << "goldens regenerated at " << golden_path();
  }
  ASSERT_FALSE(goldens.empty())
      << "no goldens at " << golden_path()
      << " — run once with ASFSIM_WRITE_GOLDEN=1 on the reference kernel";
  std::string all;
  for (const std::string& m : mismatches) all += "  " + m + "\n";
  EXPECT_TRUE(mismatches.empty())
      << "simulated outcomes diverged from the pre-optimization kernel:\n"
      << all;
}

// ---- kernel event counts ---------------------------------------------------

// Run-ahead (docs/performance.md) consumes a leaf await's event inside
// Kernel::advance() instead of the run loop; every such event must still
// count as one processed event — asfbench's sim.events and the run loop's
// wall-clock sampling read this count. The pins were recorded from the
// kernel before run-ahead existed. Two cells add the paths that bypass or
// stretch run-ahead: delayed-probe callbacks and scheduler jitter.
TEST(KernelPerfIdentity, EventCountsArePinned) {
  struct Pin {
    const char* workload;
    DetectorKind detector;
    std::uint32_t nsub;
    Cycle probe_delay;
    Cycle sched_jitter;
    std::uint64_t events;
  };
  const Pin pins[] = {
      {"vacation", DetectorKind::kSubBlock, 4, 0, 0, 8810},
      {"oltp", DetectorKind::kSubBlock, 4, 0, 0, 3660},
      {"kmeans", DetectorKind::kBaseline, 1, 0, 0, 60448},
      {"labyrinth", DetectorKind::kSubBlock, 4, 0, 0, 2497},
      {"intruder", DetectorKind::kSubBlock, 8, 20, 0, 7002},
      {"genome", DetectorKind::kSubBlock, 4, 0, 3, 8851},
  };
  for (const Pin& pin : pins) {
    ExperimentConfig cfg = small_config(pin.workload, pin.detector, pin.nsub);
    cfg.sim.probe_delay = pin.probe_delay;
    cfg.sim.fault.sched_jitter = pin.sched_jitter;
    SimConfig sim = cfg.sim;
    sim.seed = cfg.params.seed;  // as run_experiment does
    Machine m(sim, cfg.detector, cfg.nsub);
    auto wl = make_workload(pin.workload);
    wl->setup(m, cfg.params);
    m.run(cfg.max_cycles);
    ASSERT_EQ(wl->validate(m), "") << pin.workload;
    EXPECT_EQ(m.kernel().events_processed(), pin.events) << pin.workload;
  }
}

// ---- transition LUT vs switch-based reference ------------------------------

// The pre-LUT semantics, written out as the switch the lattice used to be
// expressed through (record_spec_access bit updates + check_probe branches).
SubBlockTransition reference_transition(SubBlockState s, SubBlockEvent e) {
  switch (e) {
    case SubBlockEvent::kTxRead:
      // Own read: spec bit set; an S-WR sub-block stays S-WR; a Dirty
      // sub-block is refetched (mark cleared) and joins the read set.
      return {s == SubBlockState::kSpecWrite ? SubBlockState::kSpecWrite
                                             : SubBlockState::kSpecRead,
              false};
    case SubBlockEvent::kTxWrite:
      return {SubBlockState::kSpecWrite, false};
    case SubBlockEvent::kProbeLoad:
      // Remote load: RAW against S-WR only; everything else keeps its state
      // (dirty marks persist until refetch).
      if (s == SubBlockState::kSpecWrite) return {SubBlockState::kNonSpec, true};
      return {s, false};
    case SubBlockEvent::kProbeStore:
      // Remote store: WAR/WAW against any speculative sub-block; the doomed
      // transaction's bits — and Dirty marks on the dropped line — go away.
      if (s == SubBlockState::kSpecRead || s == SubBlockState::kSpecWrite) {
        return {SubBlockState::kNonSpec, true};
      }
      return {SubBlockState::kNonSpec, false};
  }
  return {SubBlockState::kNonSpec, false};
}

TEST(SubBlockLut, MatchesSwitchReferenceOverAllStateEventPairs) {
  for (std::uint8_t si = 0; si < 4; ++si) {
    for (std::uint8_t ei = 0; ei < 4; ++ei) {
      const auto s = static_cast<SubBlockState>(si);
      const auto e = static_cast<SubBlockEvent>(ei);
      const SubBlockTransition lut = subblock_transition(s, e);
      const SubBlockTransition ref = reference_transition(s, e);
      EXPECT_EQ(lut.next, ref.next)
          << to_string(s) << " x event " << int(ei);
      EXPECT_EQ(lut.conflict, ref.conflict)
          << to_string(s) << " x event " << int(ei);
    }
  }
}

TEST(SubBlockLut, WordWideOpsMatchPerSubBlockLutApplication) {
  // apply_tx / probe_conflicts over a random multi-bit mask must equal
  // looking up the LUT for each sub-block individually.
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    SubBlockBits bits;
    bits.spec = static_cast<SubBlockMask>(rng.next_u64());
    // Constrain to the reachable SpecState region: wr ⊆ spec. The Dirty
    // encoding (wr without spec) lives in dirty_marks_, never in a
    // transaction's own SpecState bits — apply_tx is only defined there.
    bits.wr = static_cast<SubBlockMask>(rng.next_u64() & bits.spec);
    const auto m = static_cast<SubBlockMask>(rng.next_u64());
    const bool is_write = (trial & 1) != 0;
    const bool invalidating = (trial & 2) != 0;

    SubBlockBits word = bits;
    word.apply_tx(m, is_write);
    const SubBlockMask conflicts = bits.probe_conflicts(m, invalidating);

    for (std::uint32_t i = 0; i < kMaxSubBlocks; ++i) {
      const SubBlockState old = bits.state(i);
      if (m & (1u << i)) {
        const auto ev =
            is_write ? SubBlockEvent::kTxWrite : SubBlockEvent::kTxRead;
        EXPECT_EQ(word.state(i), subblock_transition(old, ev).next)
            << "sub " << i;
        const auto pev = invalidating ? SubBlockEvent::kProbeStore
                                      : SubBlockEvent::kProbeLoad;
        EXPECT_EQ((conflicts >> i) & 1u,
                  subblock_transition(old, pev).conflict ? 1u : 0u)
            << "sub " << i;
      } else {
        EXPECT_EQ(word.state(i), old) << "untouched sub " << i;
        EXPECT_EQ((conflicts >> i) & 1u, 0u) << "untouched sub " << i;
      }
    }
  }
}

}  // namespace
}  // namespace asfsim
