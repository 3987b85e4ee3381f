// MemorySystem: the simulated cache hierarchy, MOESI snooping coherence,
// and the point where conflict detection happens.
//
// Timing model (DESIGN.md §2): the whole coherence transaction for an access
// is resolved atomically at issue time and a load-to-use latency is charged
// based on where the data came from (L1 / remote L1 / private L2 / private
// L3 / memory, per paper Table II). Functional data never flows through the
// caches — the BackingStore plus per-transaction write overlays are the
// ground truth — so caches are pure timing/occupancy models, which is all
// the paper's (relative) results depend on.
//
// Speculative metadata lives in the L1 way, as in the paper (§IV-B, §IV-E):
// each core keeps a dense vector of {slot, line, SpecState} entries for its
// live transaction, and the way holding the line points at its entry
// (TagArray::entry), so "the line is speculative" and "the metadata exists"
// are one fact. The Detector policy value checks the entry on every incoming
// probe — for valid lines and for invalidated lines whose speculative info
// was retained (paper §IV-B). Dirty sub-block marks (paper §IV-C) are a
// per-way mask that outlives the transaction and dies when the line is
// refetched or leaves the way.
//
// The perfect detector alone keeps an entry whose way is gone: its
// metadata survives a plain invalidation (its upper-bound role). Such an
// orphan entry has slot kNoSlot and is found by a scan of its core's
// entries, taken only while that core holds an orphan; a refill of the line
// re-attaches it to the new way. The probe-based detectors never orphan an
// entry, and check_invariants() reports one as a violation.
//
// A destroyed MemorySystem hands its tag arrays to the next one of the
// same geometry, which clears them instead of allocating (coherence.cpp,
// SparePool): set-up then never depends on whether the allocator returned
// the previous Machine's memory to the OS.
//
// Probes carry no residency directory: a broadcast reads the line's set in
// every remote L1 tag array (two ways per set at Table II geometry) and
// skips a core that does not hold the line, valid or retained. Tag
// occupancy is exactly the set of cores that can conflict or react in MOESI
// terms, so L1 fills and evictions pay no bookkeeping beyond the tag array.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "htm/tx_control.hpp"
#include "mem/cache.hpp"
#include "prov/collector.hpp"
#include "sim/config.hpp"
#include "stats/counters.hpp"

namespace asfsim {

class Kernel;
class FaultPlan;

namespace trace {
class TraceHub;
}  // namespace trace

/// Read/write-set footprint of one core's current transaction: distinct
/// lines touched and (architectural, detector-quantized) sub-blocks set.
struct TxFootprint {
  std::uint32_t read_lines = 0;
  std::uint32_t write_lines = 0;
  std::uint32_t read_subs = 0;
  std::uint32_t write_subs = 0;
};

/// Where a miss was served from (for stats and latency).
enum class DataSource : std::uint8_t {
  kL1 = 0,
  kRemoteL1,
  kL2,
  kL3,
  kMemory,
};

struct AccessResult {
  Cycle latency = 0;
  bool capacity_abort = false;  // requester's own tx cannot keep its
                                // speculative lines in the L1
  bool spurious_abort = false;  // injected fault: abort for no architectural
                                // reason (real ASF reserves the right)
  bool requester_lost = false;  // the contention policy ruled the REQUESTER
                                // the loser: the access was nacked (no fill,
                                // no speculative bookkeeping) and the
                                // requester must abort its own transaction
  DataSource source = DataSource::kL1;
};

class MemorySystem {
 public:
  MemorySystem(Kernel& kernel, const SimConfig& cfg, Stats& stats,
               Detector detector);
  /// Hands the tag arrays to the next MemorySystem of the same geometry.
  ~MemorySystem();
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  void set_tx_control(ITxControl* txctl) { txctl_ = txctl; }
  /// Attach the trace hub (null while tracing is disabled; the only cost
  /// then is one null check on the avoided-conflict path).
  void set_trace_hub(trace::TraceHub* hub) { hub_ = hub; }
  /// Attach the fault plan (null while injection is disabled; the only cost
  /// then is one null check per transactional access / probe broadcast).
  void set_fault_plan(FaultPlan* plan) { fault_ = plan; }
  /// Attach the conflict-provenance collector (null unless
  /// SimConfig::provenance). Only consulted on the avoided-false-conflict
  /// path — detected conflicts are attributed at the doom() hook.
  void set_provenance(prov::ProvCollector* prov) { prov_ = prov; }
  [[nodiscard]] const Detector& detector() const { return detector_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }

  /// Perform one aligned access (size 1..8, not crossing a line). Resolves
  /// coherence, runs conflict detection, updates speculative metadata, and
  /// returns the latency to charge. Does NOT move data (see file comment).
  AccessResult access(CoreId core, Addr addr, std::uint32_t size,
                      bool is_write, bool is_tx);

  /// Would this access need a probe broadcast (L1 miss, upgrade, or a
  /// Dirty-forced refetch)? Used by the delayed-probe timing mode to decide
  /// whether to stall before issuing. Read-only.
  [[nodiscard]] bool would_broadcast(CoreId core, Addr addr,
                                     std::uint32_t size, bool is_write,
                                     bool is_tx) const;

  /// Commit-time read-set validation (DPTM-style soundness net): a committing
  /// writer checks each committed line's written bytes against other active
  /// transactions' speculative byte masks and dooms true-overlap victims.
  /// This closes the silent-store window that line-invalidation retention
  /// opens (a writer holding M writes into a retained remote read set with no
  /// probe; see DESIGN.md §6). No-op for baseline (it never retains) and for
  /// the oracle (which already checks every access).
  void validate_readers_at_commit(CoreId committer, Addr line,
                                  ByteMask written);

  /// Transaction end (commit or abort): clear core's speculative metadata,
  /// drop speculatively-written lines on abort, unpin everything.
  /// Dirty marks on OTHER cores' lines are left alone (paper §IV-D3).
  void clear_spec(CoreId core, bool discard_written_lines);

  // ---- introspection (tests, Fig 7 walkthrough) -------------------------
  [[nodiscard]] const SpecState* spec_state(CoreId core, Addr line) const;
  [[nodiscard]] SubBlockMask dirty_marks(CoreId core, Addr line) const;
  [[nodiscard]] Moesi l1_state(CoreId core, Addr line) const;
  /// Paper Table I view of one sub-block of a core's line.
  [[nodiscard]] SubBlockState subblock_state(CoreId core, Addr line,
                                             std::uint32_t sub) const;
  [[nodiscard]] std::uint64_t spec_lines(CoreId core) const {
    return entries_[core].size();
  }
  /// Footprint of `core`'s live speculative metadata. Callers that need
  /// it at transaction end (trace records, Stats histograms) must query
  /// BEFORE clear_spec discards the metadata.
  [[nodiscard]] TxFootprint tx_footprint(CoreId core) const;
  [[nodiscard]] Cycle bus_busy_until() const { return bus_free_at_; }

  /// Audit the global coherence/metadata invariants; returns an empty string
  /// when everything holds, else a description of the first violation:
  ///   * at most one core holds a line in M or E;
  ///   * an M/E holder excludes every other valid copy;
  ///   * at most one O owner per line;
  ///   * every speculative entry's way holds its line and points back at
  ///     it, and every way's entry index names an entry that points back;
  ///   * every speculative-metadata line is resident (valid or retained),
  ///     except the perfect detector's orphans;
  ///   * byte masks and architectural sub-block bits agree;
  ///   * load-origin copies carry the Dirty marks piggy-backed to them.
  [[nodiscard]] std::string check_invariants() const;

 private:
  struct ProbeOutcome {
    bool remote_owner = false;    // some remote L1 can supply the data
    bool requester_lost = false;  // a victim outranked the requester
                                  // (ContentionPolicy): access nacked
  };

  /// Probe all other cores: conflict checks + MOESI state changes.
  ProbeOutcome probe_remotes(CoreId requester, Addr line, ByteMask mask,
                             bool invalidating, SubBlockMask* piggyback);

  /// One live speculative line of a core's transaction. `slot` is the L1
  /// way holding `line`, or kNoSlot for a perfect-detector orphan.
  struct SpecEntry {
    TagArray::Slot slot;
    Addr line;
    SpecState meta;
  };

  /// Fill `line` into `core`'s L1. `slot` is what access() found for the
  /// line: a retained way (revalidated in place) or kNoSlot. Returns the
  /// slot now holding the line, or kNoSlot on capacity abort (every way
  /// pinned).
  TagArray::Slot fill_l1(CoreId core, TagArray::Slot slot, Addr line,
                         Moesi state);

  /// `slot` is the requester's resident L1 slot for `line` (access() always
  /// has it in hand — hit, upgrade, or fresh fill — so re-finding it here
  /// would be pure waste).
  void record_spec_access(CoreId core, TagArray::Slot slot, Addr line,
                          ByteMask mask, bool is_write);
  /// The record of `victim`'s conflict with `requester`'s probe of `line`
  /// (bytes `probe`), classified against the victim's state `meta`.
  [[nodiscard]] ConflictRecord conflict_record(CoreId requester, CoreId victim,
                                               Addr line, ByteMask probe,
                                               bool invalidating,
                                               const SpecState& meta) const;
  /// Returns true when the contention policy ruled the requester the loser.
  bool oracle_check(CoreId requester, Addr line, ByteMask mask, bool is_write);

  /// `core`'s entry for `line`, found through the L1 way holding it, else
  /// among the core's orphans; null when there is none.
  [[nodiscard]] const SpecEntry* find_entry(CoreId core, Addr line) const;
  /// Index of `core`'s orphan entry for `line`, or kNoEntry.
  [[nodiscard]] TagArray::EntryIndex find_orphan(CoreId core, Addr line) const;
  /// Empty `core`'s L1 way `slot`; an entry it held becomes an orphan.
  void drop_l1(CoreId core, TagArray::Slot slot);
  /// Remove entry `e` from `core`'s transaction (swap-remove: the moved
  /// entry's way is re-pointed).
  void erase_entry(CoreId core, TagArray::EntryIndex e);

  /// Capacity-pressure fault: evict the core's lowest-addressed speculative
  /// line from its whole private hierarchy. Returns false when the core has
  /// no speculative lines (nothing to evict).
  bool evict_speculative_line(CoreId core);

  Kernel& kernel_;
  const SimConfig cfg_;
  Stats& stats_;
  ITxControl* txctl_ = nullptr;
  const Detector detector_;
  trace::TraceHub* hub_ = nullptr;
  FaultPlan* fault_ = nullptr;
  prov::ProvCollector* prov_ = nullptr;
  const ProtocolMutation mutation_;  // from cfg_.fault (chaos harness)

  /// Serialize a probe broadcast on the snoop bus: returns the queuing
  /// delay (cycles the requester stalls behind earlier broadcasts).
  Cycle bus_acquire();

  // One per core (private hierarchy); L2/L3 are timing-only.
  std::vector<TagArray> l1_;
  std::vector<RecencyTags> l2_, l3_;
  Cycle bus_free_at_ = 0;  // snoop bus busy-until cycle
  // Speculative entries of each core's current transaction, in insertion
  // order up to swap-removals; each resident one is pointed at by its way.
  std::vector<std::vector<SpecEntry>> entries_;
  // Per core: how many of its entries are orphans (perfect detector only).
  std::vector<std::uint32_t> orphans_;
  // MUTATION kStalePiggybackMask only: per-core one-entry buffer holding the
  // previous fill's piggybacked S-WR set (the "stale response" being reused).
  std::vector<SubBlockMask> stale_pb_;
};

}  // namespace asfsim
