// Unit tests: MemorySystem — MOESI transitions, latencies per data source,
// speculative metadata and its lifetime in the L1 way, capacity aborts,
// retention, dirty marks.
//
// Uses a scripted ITxControl so individual coherence decisions can be
// asserted without the full HTM runtime.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "fault/plan.hpp"
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
  explicit CoherenceTest(Detector detector = Detector(DetectorKind::kSubBlock,
                                                       4))
      : cfg_(no_bus()), kernel_(cfg_.ncores), stats_(),
        mem_(kernel_, cfg_, stats_, detector),
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

  /// One step of a metadata-lifetime walk: whether `core` holds a
  /// speculative entry for `line`, the line's Dirty marks there, and a
  /// clean invariant audit.
  void expect_line(CoreId core, Addr line, bool has_entry, SubBlockMask dirty,
                   const std::string& step) const {
    SCOPED_TRACE(step);
    EXPECT_EQ(mem_.spec_state(core, line) != nullptr, has_entry);
    EXPECT_EQ(mem_.dirty_marks(core, line), dirty);
    EXPECT_EQ(mem_.check_invariants(), "");
  }

  /// End `core`'s transaction the way the runtime does.
  void end_tx(CoreId core, bool abort) {
    mem_.clear_spec(core, abort);
    tx_.active[core] = false;
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

// ---- metadata lifetime ------------------------------------------------------
// The speculative entry and the Dirty marks live in the L1 way: each walk
// below reads both, and the invariant audit, after every step.

TEST_F(CoherenceTest, RetainedEntrySurvivesRefetch) {
  tx_.active[0] = true;
  access(0, kA, 8, false);
  expect_line(0, kA, true, 0, "speculative read");
  access(1, kA + 32, 8, true);  // false WAR: invalidate with retention
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  expect_line(0, kA, true, 0, "retained after invalidation");
  access(0, kA + 8, 8, false);  // refetch revalidates the retained way
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kShared);
  expect_line(0, kA, true, 0, "refetched");
  ASSERT_NE(mem_.spec_state(0, kA), nullptr);
  EXPECT_EQ(mem_.spec_state(0, kA)->read_bytes, byte_mask(0, 16))
      << "the refetch adds to the entry it kept";
  EXPECT_EQ(mem_.spec_lines(0), 1u);
  end_tx(0, false);
  expect_line(0, kA, false, 0, "committed");
}

TEST_F(CoherenceTest, ForcedEvictionRemovesEntryAndMarks) {
  FaultConfig fc;
  fc.evict_rate = 1.0;  // every transactional access with live lines
  FaultPlan plan(fc, 1, cfg_.ncores);
  mem_.set_fault_plan(&plan);
  tx_.active[0] = true;
  tx_.active[1] = true;
  access(1, kA + 32, 8, true);  // core1's only access: S-WR sub-block 2
  access(0, kA, 8, false);      // piggy-back marks sub-block 2 Dirty
  expect_line(0, kA, true, 0b0100, "speculative read with a Dirty mark");
  const AccessResult r = access(0, kA + 8, 8, false);
  EXPECT_TRUE(r.capacity_abort);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  EXPECT_EQ(mem_.spec_lines(0), 0u);
  expect_line(0, kA, false, 0, "forced eviction");
  end_tx(0, true);
  expect_line(0, kA, false, 0, "capacity abort");
  mem_.set_fault_plan(nullptr);
}

TEST_F(CoherenceTest, ClearSpecOnCommitUnpinsAndDropsRetained) {
  constexpr Addr kB = kA + kLineBytes, kC = kA + 2 * kLineBytes;
  tx_.active[0] = true;
  access(0, kA, 8, false);
  access(0, kB, 8, true);
  access(0, kC, 8, false);
  access(1, kC + 32, 8, true);  // kC retained at core0
  for (const Addr l : {kA, kB, kC}) expect_line(0, l, true, 0, "in tx");
  end_tx(0, false);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kExclusive);
  EXPECT_EQ(mem_.l1_state(0, kB), Moesi::kModified);
  EXPECT_EQ(mem_.l1_state(0, kC), Moesi::kInvalid) << "retained way dropped";
  for (const Addr l : {kA, kB, kC}) expect_line(0, l, false, 0, "committed");
  // The committed lines are no longer pinned: two fills of kA's set evict
  // it without a capacity abort.
  EXPECT_FALSE(access(0, kA + 512 * kLineBytes, 8, false).capacity_abort);
  EXPECT_FALSE(access(0, kA + 1024 * kLineBytes, 8, false).capacity_abort);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  expect_line(0, kA, false, 0, "evicted after commit");
}

TEST_F(CoherenceTest, ClearSpecOnAbortDropsWrittenAndRetained) {
  constexpr Addr kB = kA + kLineBytes, kC = kA + 2 * kLineBytes;
  tx_.active[0] = true;
  access(0, kA, 8, false);
  access(0, kB, 8, true);
  access(0, kC, 8, false);
  access(1, kC + 32, 8, true);  // kC retained at core0
  for (const Addr l : {kA, kB, kC}) expect_line(0, l, true, 0, "in tx");
  end_tx(0, true);
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kExclusive) << "clean line survives";
  EXPECT_EQ(mem_.l1_state(0, kB), Moesi::kInvalid) << "written line dropped";
  EXPECT_EQ(mem_.l1_state(0, kC), Moesi::kInvalid) << "retained way dropped";
  for (const Addr l : {kA, kB, kC}) expect_line(0, l, false, 0, "aborted");
  EXPECT_EQ(mem_.spec_lines(0), 0u);
}

TEST_F(CoherenceTest, EveryWayPinnedGivesCapacityAbortAndKeepsEntries) {
  const Addr s1 = kA + 512 * kLineBytes, s2 = kA + 1024 * kLineBytes;
  tx_.active[0] = true;
  access(0, kA, 8, false);
  access(0, s1, 8, true);
  expect_line(0, kA, true, 0, "first way");
  expect_line(0, s1, true, 0, "second way");
  EXPECT_TRUE(access(0, s2, 8, false).capacity_abort);
  EXPECT_EQ(mem_.l1_state(0, s2), Moesi::kInvalid) << "no victim, no fill";
  expect_line(0, s2, false, 0, "capacity abort");
  expect_line(0, kA, true, 0, "pinned way kept");
  expect_line(0, s1, true, 0, "pinned way kept");
  end_tx(0, true);
  EXPECT_FALSE(access(0, s2, 8, false).capacity_abort);
  expect_line(0, s2, false, 0, "filled after the abort");
}

TEST_F(CoherenceTest, DirtyMarkOfAnEvictedLineIsGoneOnRefill) {
  tx_.active[1] = true;
  access(1, kA + 32, 8, true);  // core1: S-WR sub-block 2
  access(0, kA, 8, false);      // plain load: piggy-back marks it Dirty
  expect_line(0, kA, false, 0b0100, "marked");
  end_tx(1, false);
  expect_line(0, kA, false, 0b0100, "marks outlive the writer's commit");
  access(0, kA + 512 * kLineBytes, 8, false);
  access(0, kA + 1024 * kLineBytes, 8, true);  // store miss evicts kA (LRU)
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  expect_line(0, kA, false, 0, "evicted");
  expect_line(0, kA + 1024 * kLineBytes, false, 0,
              "the victim's marks do not pass to the new line");
  access(0, kA, 8, false);  // refilled from the private L2
  EXPECT_NE(mem_.l1_state(0, kA), Moesi::kInvalid);
  expect_line(0, kA, false, 0, "refilled");
}

class PerfectCoherenceTest : public CoherenceTest {
 protected:
  PerfectCoherenceTest() : CoherenceTest(Detector(DetectorKind::kPerfect, 1)) {}
};

TEST_F(PerfectCoherenceTest, EntryOutlivesItsWayAndReattachesOnRefill) {
  const Addr s1 = kA + 512 * kLineBytes, s2 = kA + 1024 * kLineBytes;
  tx_.active[0] = true;
  access(0, kA, 8, false);
  expect_line(0, kA, true, 0, "speculative read");
  access(1, kA + 32, 8, true);  // the oracle retains nothing: kA is dropped
  EXPECT_EQ(mem_.l1_state(0, kA), Moesi::kInvalid);
  expect_line(0, kA, true, 0, "orphaned by the invalidation");
  EXPECT_EQ(stats_.false_conflicts_avoided, 1u);
  access(0, kA + 8, 8, false);  // refill re-attaches the entry
  EXPECT_NE(mem_.l1_state(0, kA), Moesi::kInvalid);
  expect_line(0, kA, true, 0, "re-attached");
  ASSERT_NE(mem_.spec_state(0, kA), nullptr);
  EXPECT_EQ(mem_.spec_state(0, kA)->read_bytes, byte_mask(0, 16));
  EXPECT_EQ(mem_.spec_lines(0), 1u);
  access(0, s1, 8, false);
  EXPECT_TRUE(access(0, s2, 8, false).capacity_abort)
      << "the re-attached entry pins its way";
  expect_line(0, kA, true, 0, "pinned");
}

TEST_F(PerfectCoherenceTest, OrphanEntryStillMeetsTrueConflicts) {
  tx_.active[0] = true;
  access(0, kA, 8, false);
  access(1, kA + 32, 8, true);  // orphans core0's entry
  expect_line(0, kA, true, 0, "orphaned");
  ASSERT_TRUE(tx_.dooms.empty());
  tx_.active[2] = true;
  access(2, kA, 4, true);  // true WAR against the orphan's read bytes
  ASSERT_EQ(tx_.dooms.size(), 1u);
  EXPECT_EQ(tx_.dooms[0].victim, 0u);
  EXPECT_FALSE(tx_.dooms[0].is_false);
  expect_line(0, kA, false, 0, "doomed");
  EXPECT_EQ(mem_.spec_lines(0), 0u);
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

TEST(TagArrayReuse, ANewMemorySystemStartsEmpty) {
  // A MemorySystem takes the tag arrays a destroyed one of the same geometry
  // left behind; the second round must see none of the first round's
  // lines, speculative entries or Dirty marks.
  SimConfig cfg;
  cfg.ncores = 2;
  const Addr line = 0x40000;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    Kernel kernel(cfg.ncores);
    Stats stats;
    MemorySystem mem(kernel, cfg, stats, Detector(DetectorKind::kSubBlock, 4));
    FakeTxControl tx(cfg.ncores);
    mem.set_tx_control(&tx);
    tx.mem = &mem;
    EXPECT_EQ(mem.l1_state(0, line), Moesi::kInvalid);
    EXPECT_EQ(mem.spec_state(0, line), nullptr);
    EXPECT_EQ(mem.dirty_marks(1, line), 0u);
    // Served from memory: no L2/L3 copy survives from the first round.
    tx.active[0] = true;
    EXPECT_EQ(mem.access(0, line, 8, true, true).source, DataSource::kMemory);
    EXPECT_EQ(mem.access(1, line + 32, 8, false, false).source,
              DataSource::kRemoteL1);
    EXPECT_TRUE(tx.dooms.empty());
    EXPECT_NE(mem.spec_state(0, line), nullptr);
    EXPECT_NE(mem.dirty_marks(1, line), 0u);
    EXPECT_EQ(mem.check_invariants(), "");
    // The round ends with core 0's transaction still live: its way holds
    // an entry and core 1's copy a Dirty mark.
  }
}

}  // namespace
}  // namespace asfsim
