// Strict serializability replay check (the strongest correctness property
// test in the suite).
//
// Each "ledger" transaction reads two random cells, combines them, and
// writes the result into a third cell. The host records every COMMITTED
// operation, in commit order, together with the values the transaction
// actually observed. Afterwards the log is replayed serially against a host
// model: if the simulated HTM produced a serializable execution, every
// logged read must match the model state at its position in commit order,
// and the final guest memory must equal the model memory.
//
// Commit order is recovered from the simulated commit cycle (captured right
// after the commit point, before any other transaction can commit).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "core/detector.hpp"
#include "guest/garray.hpp"
#include "guest/machine.hpp"

namespace asfsim {
namespace {

struct LedgerOp {
  Cycle commit_cycle;
  std::uint64_t seq;  // tie-break: host log append order
  std::uint32_t a, b, c;
  std::uint64_t va, vb, out;
};

struct Ledger {
  GArray64 cells;
  std::uint64_t ncells = 0;
  std::vector<LedgerOp> log;
};

constexpr std::uint64_t kCombineSalt = 0x9e3779b97f4a7c15ull;

std::uint64_t combine(std::uint64_t va, std::uint64_t vb) {
  return (va * 3 + vb * 5 + 1) ^ kCombineSalt;
}

Task<void> ledger_worker(GuestCtx& c, Ledger* lg, int ntx) {
  for (int i = 0; i < ntx; ++i) {
    const auto a = static_cast<std::uint32_t>(c.rng().below(lg->ncells));
    const auto b = static_cast<std::uint32_t>(c.rng().below(lg->ncells));
    auto t = static_cast<std::uint32_t>(c.rng().below(lg->ncells));
    std::uint64_t va = 0, vb = 0, out = 0;
    co_await c.run_tx([&]() -> Task<void> {
      va = co_await lg->cells.get(c, a);
      vb = co_await lg->cells.get(c, b);
      out = combine(va, vb);
      co_await lg->cells.set(c, t, out);
    });
    // run_tx returned => committed. The commit cycle is now() minus the
    // constant commit latency; ties are resolved by log order, which the
    // deterministic kernel makes reproducible.
    lg->log.push_back({c.now(), lg->log.size(), a, b, t, va, vb, out});
    co_await c.work(15);
  }
}

struct SerCase {
  DetectorKind detector;
  std::uint32_t nsub;
  std::uint64_t seed;
};

/// gtest prints a parameter it has no printer for as its raw bytes,
/// padding included, and ctest takes that text into the test's name.
void PrintTo(const SerCase& c, std::ostream* os) {
  *os << Detector(c.detector, c.nsub).name() << ", seed " << c.seed;
}

class Serializability : public ::testing::TestWithParam<SerCase> {};

TEST_P(Serializability, CommittedHistoryReplaysSerially) {
  const auto& [det, nsub, seed] = GetParam();
  SimConfig sim;
  sim.seed = seed;
  Machine m(sim, det, nsub);

  Ledger lg;
  lg.ncells = 96;  // 12 unpadded lines: plenty of false sharing
  lg.cells = GArray64::alloc(m.galloc(), lg.ncells);
  std::vector<std::uint64_t> model(lg.ncells);
  for (std::uint64_t i = 0; i < lg.ncells; ++i) {
    lg.cells.poke(m, i, i * 11 + 1);
    model[i] = i * 11 + 1;
  }
  for (CoreId c = 0; c < m.config().ncores; ++c) {
    m.spawn(c, ledger_worker(m.ctx(c), &lg, 60));
  }
  m.run();

  // Replay in commit order.
  std::stable_sort(lg.log.begin(), lg.log.end(),
                   [](const LedgerOp& x, const LedgerOp& y) {
                     if (x.commit_cycle != y.commit_cycle) {
                       return x.commit_cycle < y.commit_cycle;
                     }
                     return x.seq < y.seq;
                   });
  for (std::size_t i = 0; i < lg.log.size(); ++i) {
    const LedgerOp& op = lg.log[i];
    ASSERT_EQ(op.va, model[op.a])
        << "op " << i << " read cell " << op.a
        << " inconsistent with the serial order (non-serializable!)";
    ASSERT_EQ(op.vb, model[op.b]) << "op " << i << " read cell " << op.b;
    ASSERT_EQ(op.out, combine(op.va, op.vb));
    model[op.c] = op.out;
  }
  for (std::uint64_t i = 0; i < lg.ncells; ++i) {
    EXPECT_EQ(lg.cells.peek(m, i), model[i]) << "final cell " << i;
  }
  EXPECT_EQ(lg.log.size(), 8u * 60u);
}

std::string ser_name(const ::testing::TestParamInfo<SerCase>& info) {
  std::string n = to_string(info.param.detector);
  if (info.param.detector == DetectorKind::kSubBlock) {
    n += std::to_string(info.param.nsub);
  }
  n += "_seed" + std::to_string(info.param.seed);
  for (auto& ch : n) {
    if (ch == '-') ch = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    DetectorsAndSeeds, Serializability,
    ::testing::Values(SerCase{DetectorKind::kBaseline, 1, 1},
                      SerCase{DetectorKind::kBaseline, 1, 9},
                      SerCase{DetectorKind::kSubBlock, 2, 1},
                      SerCase{DetectorKind::kSubBlock, 4, 1},
                      SerCase{DetectorKind::kSubBlock, 4, 9},
                      SerCase{DetectorKind::kSubBlock, 4, 23},
                      SerCase{DetectorKind::kSubBlock, 8, 5},
                      SerCase{DetectorKind::kSubBlock, 16, 1},
                      SerCase{DetectorKind::kSubBlockWawLine, 4, 1},
                      SerCase{DetectorKind::kWarOnly, 1, 1},
                      SerCase{DetectorKind::kWarOnly, 1, 9},
                      SerCase{DetectorKind::kPerfect, 1, 1},
                      SerCase{DetectorKind::kPerfect, 1, 23}),
    ser_name);

}  // namespace
}  // namespace asfsim
