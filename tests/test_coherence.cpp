// Unit tests: MemorySystem — MOESI transitions, latencies per data source,
// speculative metadata, capacity aborts, retention, dirty marks.
//
// Uses a scripted ITxControl so individual coherence decisions can be
// asserted without the full HTM runtime.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/detector.hpp"
#include "mem/coherence.hpp"
#include "sim/kernel.hpp"

namespace asfsim {
namespace {

class FakeTxControl final : public ITxControl {
 public:
  std::vector<bool> active;
  std::vector<ConflictRecord> dooms;
  MemorySystem* mem = nullptr;

  explicit FakeTxControl(std::uint32_t ncores) : active(ncores, false) {}

  bool in_tx(CoreId core) const override { return active[core]; }
  void doom(CoreId victim, const ConflictRecord& rec) override {
    dooms.push_back(rec);
    active[victim] = false;
    if (mem != nullptr) mem->clear_spec(victim, true);
  }
};

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest()
      : cfg_(no_bus()), kernel_(cfg_.ncores), stats_(),
        mem_(kernel_, cfg_, stats_, Detector(DetectorKind::kSubBlock, 4)),
        tx_(cfg_.ncores) {
    mem_.set_tx_control(&tx_);
    tx_.mem = &mem_;
  }

  static SimConfig no_bus() {
    // Unit tests assert pure source latencies; all accesses happen at the
    // same kernel cycle, so bus queuing (tested separately below) would
    // otherwise stack up.
    SimConfig c;
    c.bus_occupancy = 0;
    return c;
  }

  AccessResult access(CoreId c, Addr a, std::uint32_t size, bool write) {
    return mem_.access(c, a, size, write, tx_.active[c]);
  }

  SimConfig cfg_;
  Kernel kernel_;
  Stats stats_;
  MemorySystem mem_;
  FakeTxControl tx_;
  static constexpr Addr kA = 0x10000;
};

TEST_F(CoherenceTest, ColdLoadComesFromMemoryThenL1) {
  auto r = access(0, kA, 8, false);
  EXPECT_EQ(r.source, DataSource::kMemory);
  EXPECT_EQ(r.latency, cfg_.mem_latency);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kExclusive);
  r = access(0, kA, 8, false);
  EXPECT_EQ(r.source, DataSource::kL1);
  EXPECT_EQ(r.latency, cfg_.l1.latency);
}

TEST_F(CoherenceTest, RemoteCopyServedCacheToCacheAndShared) {
  access(0, kA, 8, false);  // core0: E
  const auto r = access(1, kA, 8, false);
  EXPECT_EQ(r.source, DataSource::kRemoteL1);
  EXPECT_EQ(r.latency, cfg_.cache2cache_latency);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kShared);  // E -> S on share
  EXPECT_EQ(mem_.l1_state(1, kA), Moesi::kShared);
}

TEST_F(CoherenceTest, ModifiedOwnerSuppliesAndBecomesOwned) {
  access(0, kA, 8, true);  // core0: M
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kModified);
  access(1, kA, 8, false);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kOwned);
  EXPECT_EQ(mem_.l1_state(1, kA), Moesi::kShared);
}

TEST_F(CoherenceTest, WriteInvalidatesAllOtherCopies) {
  access(0, kA, 8, false);
  access(1, kA, 8, false);
  access(2, kA, 8, false);
  access(3, kA, 8, true);  // RFO
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  EXPECT_EQ(mem_.l1_state(1, kA), Moesi::kInvalid);
  EXPECT_EQ(mem_.l1_state(2, kA), Moesi::kInvalid);
  EXPECT_EQ(mem_.l1_state(3, kA), Moesi::kModified);
}

TEST_F(CoherenceTest, SharedWriteUpgradesInPlace) {
  access(0, kA, 8, false);
  access(1, kA, 8, false);  // both S
  const auto r = access(0, kA, 8, true);
  EXPECT_EQ(r.latency, cfg_.upgrade_latency);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kModified);
  EXPECT_EQ(mem_.l1_state(1, kA), Moesi::kInvalid);
}

TEST_F(CoherenceTest, EvictedLineHitsPrivateL2) {
  // Fill both ways of kA's set, then one more line to evict kA.
  const Addr conflict1 = kA + 512 * kLineBytes;   // same set (512 sets)
  const Addr conflict2 = kA + 1024 * kLineBytes;  // same set
  access(0, kA, 8, false);
  access(0, conflict1, 8, false);
  access(0, conflict2, 8, false);  // evicts LRU = kA
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  const auto r = access(0, kA, 8, false);
  EXPECT_EQ(r.source, DataSource::kL2);
  EXPECT_EQ(r.latency, cfg_.l2.latency);
}

TEST_F(CoherenceTest, SpeculativeAccessRecordsMetadataAndTableIBits) {
  tx_.active[0] = true;
  access(0, kA + 4, 4, false);
  access(0, kA + 32, 8, true);
  const SpecState* s = mem_.spec_state(0, kA);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->read_bytes, byte_mask(4, 4));
  EXPECT_EQ(s->write_bytes, byte_mask(32, 8));
  EXPECT_EQ(mem_.subblock_state(0, kA, 0), SubBlockState::kSpecRead);
  EXPECT_EQ(mem_.subblock_state(0, kA, 2), SubBlockState::kSpecWrite);
  EXPECT_EQ(mem_.subblock_state(0, kA, 3), SubBlockState::kNonSpec);
}

TEST_F(CoherenceTest, ReadOfSpecWrittenSubBlockDoomsWriter) {
  tx_.active[0] = true;
  access(0, kA, 8, true);
  access(1, kA, 8, false);  // same sub-block -> RAW, writer doomed
  ASSERT_EQ(tx_.dooms.size(), 1u);
  EXPECT_EQ(tx_.dooms[0].victim, 0u);
  EXPECT_EQ(tx_.dooms[0].type, ConflictType::kRAW);
  EXPECT_FALSE(tx_.dooms[0].is_false);
  EXPECT_EQ(mem_.spec_state(0, kA), nullptr) << "doom clears metadata";
}

TEST_F(CoherenceTest, ReadOfOtherSubBlockSetsDirtyMarkInstead) {
  tx_.active[0] = true;
  access(0, kA, 8, true);       // sub-block 0 S-WR
  access(1, kA + 32, 8, false);  // different sub-block
  EXPECT_TRUE(tx_.dooms.empty());
  EXPECT_EQ(mem_.dirty_marks(1, kA), 0b0001u)
      << "piggy-back marks the writer's sub-block Dirty at the reader";
  EXPECT_EQ(mem_.subblock_state(1, kA, 0), SubBlockState::kDirty);
  EXPECT_EQ(stats_.piggyback_messages, 1u);
}

TEST_F(CoherenceTest, DirtyHitForcesReprobeWhichDoomsWriter) {
  tx_.active[0] = true;
  tx_.active[1] = true;
  access(0, kA, 8, true);
  access(1, kA + 32, 8, false);  // dirty mark on sub-block 0
  access(1, kA, 8, false);       // touches the Dirty sub-block
  ASSERT_EQ(tx_.dooms.size(), 1u);
  EXPECT_EQ(tx_.dooms[0].victim, 0u);
  EXPECT_EQ(stats_.dirty_refetches, 1u);
  EXPECT_EQ(mem_.dirty_marks(1, kA), 0u) << "refetch clears the marks";
}

TEST_F(CoherenceTest, FalseWarInvalidatesWithRetentionAndStillDetectsLater) {
  tx_.active[0] = true;
  access(0, kA, 8, false);       // core0 spec-reads sub-block 0
  access(1, kA + 32, 8, true);   // false WAR: invalidate w/ retention
  EXPECT_TRUE(tx_.dooms.empty());
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  ASSERT_NE(mem_.spec_state(0, kA), nullptr) << "read set retained";
  EXPECT_EQ(mem_.check_invariants(), "");
  const std::uint64_t probes = stats_.probes_sent;
  access(2, kA, 8, true);  // true WAR against the retained read set
  EXPECT_EQ(stats_.probes_sent, probes + 1);
  ASSERT_EQ(tx_.dooms.size(), 1u) << "the retained copy was probed";
  EXPECT_EQ(tx_.dooms[0].victim, 0u);
  EXPECT_EQ(tx_.dooms[0].requester, 2u);
  EXPECT_EQ(tx_.dooms[0].type, ConflictType::kWAR);
  EXPECT_FALSE(tx_.dooms[0].is_false);
}

TEST_F(CoherenceTest, CapacityAbortWhenEveryWayIsSpeculative) {
  tx_.active[0] = true;
  const Addr s1 = kA + 512 * kLineBytes, s2 = kA + 1024 * kLineBytes;
  EXPECT_FALSE(access(0, kA, 8, false).capacity_abort);
  EXPECT_FALSE(access(0, s1, 8, false).capacity_abort);
  EXPECT_TRUE(access(0, s2, 8, false).capacity_abort)
      << "third speculative line in a 2-way set cannot be kept";
}

TEST_F(CoherenceTest, ClearSpecOnAbortDropsWrittenLinesOnly) {
  tx_.active[0] = true;
  access(0, kA, 8, false);                    // spec read line
  access(0, kA + kLineBytes, 8, true);        // spec written line
  mem_.clear_spec(0, /*discard_written_lines=*/true);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kExclusive) << "clean line survives";
  EXPECT_EQ(mem_.l1_state(0, kA + kLineBytes), Moesi::kInvalid);
  EXPECT_EQ(mem_.spec_lines(0), 0u);
}

TEST_F(CoherenceTest, ClearSpecOnCommitKeepsWrittenLines) {
  tx_.active[0] = true;
  access(0, kA, 8, true);
  mem_.clear_spec(0, /*discard_written_lines=*/false);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kModified);
}

TEST_F(CoherenceTest, CommitValidationDoomsOverlappingReaders) {
  tx_.active[1] = true;
  access(1, kA, 8, false);  // core1 spec-reads bytes 0..7
  mem_.validate_readers_at_commit(0, kA, byte_mask(0, 4));
  ASSERT_EQ(tx_.dooms.size(), 1u);
  EXPECT_EQ(tx_.dooms[0].victim, 1u);
  tx_.dooms.clear();
  tx_.active[2] = true;
  access(2, kA + 32, 8, false);
  mem_.validate_readers_at_commit(0, kA, byte_mask(0, 4));
  EXPECT_TRUE(tx_.dooms.empty()) << "disjoint bytes never validate-fail";
}

// Probes and commit-time validation find the cores that hold a line by
// reading each remote L1 tag set: a retained (invalid) copy counts as held,
// a line nobody holds is one counted broadcast with no remote effect.

TEST_F(CoherenceTest, ProbeOfUnheldLineChangesNoRemoteState) {
  constexpr Addr kB = kA + 4 * kLineBytes;
  // core1 holds a speculative M line, core2 a clean E line, both elsewhere.
  tx_.active[1] = true;
  access(1, kB, 8, true);
  access(2, kB + kLineBytes, 8, false);
  const std::uint64_t probes = stats_.probes_sent;
  const AccessResult r = access(0, kA, 8, true);  // nobody holds kA
  EXPECT_EQ(stats_.probes_sent, probes + 1) << "one broadcast, counted once";
  EXPECT_EQ(r.source, DataSource::kMemory);
  EXPECT_EQ(stats_.c2c_transfers, 0u);
  EXPECT_TRUE(tx_.dooms.empty());
  EXPECT_EQ(mem_.l1_state(1, kB), Moesi::kModified);
  EXPECT_EQ(mem_.l1_state(2, kB + kLineBytes), Moesi::kExclusive);
  EXPECT_EQ(mem_.l1_state(1, kA), Moesi::kInvalid);
  EXPECT_EQ(mem_.l1_state(2, kA), Moesi::kInvalid);
  EXPECT_NE(mem_.spec_state(1, kB), nullptr);
  EXPECT_EQ(mem_.check_invariants(), "");
}

TEST_F(CoherenceTest, CommitValidationReachesRetainedReader) {
  tx_.active[1] = true;
  access(1, kA, 8, false);      // core1 spec-reads bytes 0..7
  access(0, kA + 32, 8, true);  // false WAR: core1's copy is retained
  ASSERT_EQ(mem_.l1_state(1, kA), Moesi::kInvalid);
  ASSERT_NE(mem_.spec_state(1, kA), nullptr);
  ASSERT_TRUE(tx_.dooms.empty());
  // core0 (holding M, so its silent store sent no probe) commits a write
  // into core1's retained read set.
  mem_.validate_readers_at_commit(0, kA, byte_mask(0, 4));
  ASSERT_EQ(tx_.dooms.size(), 1u);
  EXPECT_EQ(tx_.dooms[0].victim, 1u);
  EXPECT_EQ(tx_.dooms[0].requester, 0u);
  EXPECT_FALSE(tx_.dooms[0].is_false);
}

TEST(CoherenceLimits, RejectsMoreThan64Cores) {
  SimConfig cfg;
  cfg.ncores = 65;
  Kernel kernel(cfg.ncores);
  Stats stats;
  EXPECT_THROW(
      MemorySystem(kernel, cfg, stats, Detector(DetectorKind::kBaseline, 1)),
      std::invalid_argument);
}

TEST_F(CoherenceTest, NonTxAccessesNeverCreateMetadata) {
  access(0, kA, 8, true);
  EXPECT_EQ(mem_.spec_state(0, kA), nullptr);
  EXPECT_EQ(stats_.tx_accesses, 0u);
  EXPECT_EQ(stats_.accesses, 1u);
}

TEST_F(CoherenceTest, AvoidedFalseConflictsAreCounted) {
  tx_.active[0] = true;
  access(0, kA, 8, false);
  access(1, kA + 32, 8, true);  // baseline would abort; sub-block does not
  EXPECT_EQ(stats_.false_conflicts_avoided, 1u);
  EXPECT_EQ(stats_.conflicts_total, 0u);
}

TEST_F(CoherenceTest, DoublyEvictedLineHitsPrivateL3) {
  // Evict from the 2-way L1 (32KB set stride) AND the 16-way L2 (same
  // stride): after 17 same-set fills the first line is gone from both and
  // must be served by the private L3.
  for (std::uint64_t k = 0; k < 18; ++k) {
    access(0, kA + k * 512 * kLineBytes, 8, false);
  }
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  const auto r = access(0, kA, 8, false);
  EXPECT_EQ(r.source, DataSource::kL3);
  EXPECT_EQ(r.latency, cfg_.l3.latency);
  EXPECT_GE(stats_.l3_hits, 1u);
}

TEST_F(CoherenceTest, ByteGranularAccessesConflictOnlyWithinSubBlocks) {
  // Two transactions touching DIFFERENT BYTES of the same 4-byte word: the
  // 4-sub-block detector (16-byte blocks) must still signal (same block),
  // which the classifier marks FALSE (no byte overlap).
  tx_.active[0] = true;
  access(0, kA + 0, 1, true);   // core0 writes byte 0
  access(1, kA + 1, 1, false);  // core1 reads byte 1 (same sub-block)
  ASSERT_EQ(tx_.dooms.size(), 1u);
  EXPECT_TRUE(tx_.dooms[0].is_false)
      << "disjoint bytes in one sub-block: detected but FALSE";
  EXPECT_EQ(tx_.dooms[0].type, ConflictType::kRAW);
}

TEST_F(CoherenceTest, TwoByteAccessesRecordExactMasks) {
  tx_.active[2] = true;
  access(2, kA + 6, 2, false);
  access(2, kA + 8, 2, true);
  const SpecState* s = mem_.spec_state(2, kA);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->read_bytes, byte_mask(6, 2));
  EXPECT_EQ(s->write_bytes, byte_mask(8, 2));
}

TEST(BusContention, BackToBackProbesQueue) {
  SimConfig cfg;  // default bus_occupancy = 4
  Kernel kernel(cfg.ncores);
  Stats stats;
  MemorySystem mem(kernel, cfg, stats, Detector(DetectorKind::kBaseline, 4));
  FakeTxControl tx(cfg.ncores);
  mem.set_tx_control(&tx);
  tx.mem = &mem;

  // Three cold loads of distinct lines at the same kernel cycle: each holds
  // the snoop bus for bus_occupancy cycles, so the k-th waits k*occupancy.
  const AccessResult r0 = mem.access(0, 0x10000, 8, false, false);
  const AccessResult r1 = mem.access(1, 0x20000, 8, false, false);
  const AccessResult r2 = mem.access(2, 0x30000, 8, false, false);
  EXPECT_EQ(r0.latency, cfg.mem_latency);
  EXPECT_EQ(r1.latency, cfg.mem_latency + cfg.bus_occupancy);
  EXPECT_EQ(r2.latency, cfg.mem_latency + 2 * cfg.bus_occupancy);
  EXPECT_EQ(stats.bus_wait_cycles, 3 * cfg.bus_occupancy);
  EXPECT_EQ(mem.bus_busy_until(), 3 * cfg.bus_occupancy);
}

TEST(BusContention, LocalHitsNeverTouchTheBus) {
  SimConfig cfg;
  Kernel kernel(cfg.ncores);
  Stats stats;
  MemorySystem mem(kernel, cfg, stats, Detector(DetectorKind::kBaseline, 4));
  FakeTxControl tx(cfg.ncores);
  mem.set_tx_control(&tx);
  tx.mem = &mem;

  mem.access(0, 0x10000, 8, false, false);
  const Cycle busy = mem.bus_busy_until();
  const AccessResult hit = mem.access(0, 0x10000, 8, false, false);
  EXPECT_EQ(hit.latency, cfg.l1.latency);
  EXPECT_EQ(mem.bus_busy_until(), busy) << "hits must not occupy the bus";
}

}  // namespace
}  // namespace asfsim
