#include "mem/coherence.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/classifier.hpp"
#include "fault/plan.hpp"
#include "sim/kernel.hpp"
#include "trace/sink.hpp"

namespace asfsim {

namespace {

/// The private tag arrays of one MemorySystem.
struct TagArrays {
  std::vector<TagArray> l1;
  std::vector<RecencyTags> l2, l3;
};

template <class Tags>
bool same_geometry(const Tags& t, const CacheLevelConfig& c) {
  return t.num_sets() == c.num_sets() && t.ways() == c.ways;
}

/// Tag arrays of destroyed MemorySystems, for the next one of the same
/// geometry to clear and reuse. At Table II geometry they are 1.5 MB of
/// host memory per Machine. Freed to malloc, whether that memory goes back
/// to the OS depends on what else the heap holds, and taking it again as
/// fresh pages made Machine construction about 5x slower in a sweep of
/// short jobs (docs/performance.md, "Speculative state in the L1 way").
/// One pool serves every thread, so a spare is reused by whichever thread
/// builds next. A constructor that finds no fitting spare frees the oldest
/// one, so live MemorySystems plus spares never outnumber the most
/// MemorySystems that were alive at once.
class SparePool {
 public:
  static SparePool& get() {
    static SparePool pool;
    return pool;
  }

  /// A spare fitting `cfg`, cleared; empty vectors when there is none.
  TagArrays take(const SimConfig& cfg) {
    TagArrays t;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (spares_.empty()) return t;
      auto it = std::find_if(
          spares_.begin(), spares_.end(), [&](const TagArrays& s) {
            return s.l1.size() == cfg.ncores &&
                   same_geometry(s.l1[0], cfg.l1) &&
                   same_geometry(s.l2[0], cfg.l2) &&
                   same_geometry(s.l3[0], cfg.l3);
          });
      const bool fits = it != spares_.end();
      if (!fits) it = spares_.begin();
      t = std::move(*it);
      spares_.erase(it);
      if (!fits) return {};  // `t`, the oldest spare, is freed on return
    }
    for (TagArray& a : t.l1) a.clear();
    for (RecencyTags& a : t.l2) a.clear();
    for (RecencyTags& a : t.l3) a.clear();
    return t;
  }

  void give(TagArrays t) {
    if (t.l1.empty()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    spares_.push_back(std::move(t));
  }

 private:
  std::mutex mu_;
  std::vector<TagArrays> spares_;  // oldest first
};

}  // namespace

MemorySystem::MemorySystem(Kernel& kernel, const SimConfig& cfg, Stats& stats,
                           Detector detector)
    : kernel_(kernel),
      cfg_(cfg),
      stats_(stats),
      detector_(detector),
      mutation_(cfg.fault.mutation) {
  if (cfg_.ncores > 64) {
    throw std::invalid_argument(
        "MemorySystem: ncores > 64 (every probe broadcast reads each remote "
        "L1 tag set; the snooping model is limited to 64 cores)");
  }
  TagArrays spare = SparePool::get().take(cfg_);
  l1_ = std::move(spare.l1);
  l2_ = std::move(spare.l2);
  l3_ = std::move(spare.l3);
  if (l1_.empty()) {
    l1_.reserve(cfg_.ncores);
    l2_.reserve(cfg_.ncores);
    l3_.reserve(cfg_.ncores);
    for (std::uint32_t c = 0; c < cfg_.ncores; ++c) {
      l1_.emplace_back(cfg_.l1);
      l2_.emplace_back(cfg_.l2);
      l3_.emplace_back(cfg_.l3);
    }
  }
  entries_.resize(cfg_.ncores);
  orphans_.assign(cfg_.ncores, 0);
  stale_pb_.assign(cfg_.ncores, 0);
}

MemorySystem::~MemorySystem() {
  SparePool::get().give({std::move(l1_), std::move(l2_), std::move(l3_)});
}

TagArray::EntryIndex MemorySystem::find_orphan(CoreId core, Addr line) const {
  if (orphans_[core] == 0) return TagArray::kNoEntry;
  const std::vector<SpecEntry>& es = entries_[core];
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (es[i].slot == TagArray::kNoSlot && es[i].line == line) {
      return static_cast<TagArray::EntryIndex>(i);
    }
  }
  return TagArray::kNoEntry;
}

const MemorySystem::SpecEntry* MemorySystem::find_entry(CoreId core,
                                                        Addr line) const {
  // A resident line's entry, if any, is attached to its way (fill_l1
  // re-attaches an orphan), so only a non-resident line needs the scan.
  const TagArray& t = l1_[core];
  const TagArray::Slot s = t.find(line);
  const TagArray::EntryIndex e =
      s != TagArray::kNoSlot ? t.entry(s) : find_orphan(core, line);
  return e == TagArray::kNoEntry ? nullptr : &entries_[core][e];
}

void MemorySystem::drop_l1(CoreId core, TagArray::Slot slot) {
  TagArray& t = l1_[core];
  if (const TagArray::EntryIndex e = t.entry(slot); e != TagArray::kNoEntry) {
    entries_[core][e].slot = TagArray::kNoSlot;
    ++orphans_[core];
  }
  t.drop_slot(slot);
}

void MemorySystem::erase_entry(CoreId core, TagArray::EntryIndex e) {
  std::vector<SpecEntry>& es = entries_[core];
  TagArray& t = l1_[core];
  if (es[e].slot != TagArray::kNoSlot) {
    t.set_entry(es[e].slot, TagArray::kNoEntry);
  } else {
    --orphans_[core];
  }
  if (e + 1 != es.size()) {
    es[e] = es.back();
    if (es[e].slot != TagArray::kNoSlot) t.set_entry(es[e].slot, e);
  }
  es.pop_back();
}

const SpecState* MemorySystem::spec_state(CoreId core, Addr line) const {
  const SpecEntry* e = find_entry(core, line);
  return e == nullptr ? nullptr : &e->meta;
}

SubBlockMask MemorySystem::dirty_marks(CoreId core, Addr line) const {
  const TagArray::Slot s = l1_[core].find(line);
  return s == TagArray::kNoSlot ? SubBlockMask{0} : l1_[core].dirty(s);
}

Moesi MemorySystem::l1_state(CoreId core, Addr line) const {
  const TagArray::Slot s = l1_[core].find(line);
  return s == TagArray::kNoSlot ? Moesi::kInvalid : l1_[core].state(s);
}

SubBlockState MemorySystem::subblock_state(CoreId core, Addr line,
                                           std::uint32_t sub) const {
  // Paper Table I view: Dirty marks win over Non-speculative; S-RD/S-WR come
  // from the transaction's architectural bits.
  if (const SpecState* m = spec_state(core, line)) {
    const SubBlockState s = m->bits.state(sub);
    if (s != SubBlockState::kNonSpec) return s;
  }
  if (dirty_marks(core, line) & (1u << sub)) return SubBlockState::kDirty;
  return SubBlockState::kNonSpec;
}

void MemorySystem::record_spec_access(CoreId core, TagArray::Slot slot,
                                      Addr line, ByteMask mask,
                                      bool is_write) {
  // The line is resident at `slot`: access() fills it before recording and
  // passes the slot it already holds.
  TagArray& t = l1_[core];
  assert(t.line(slot) == line);
  std::vector<SpecEntry>& es = entries_[core];
  TagArray::EntryIndex e = t.entry(slot);
  if (e == TagArray::kNoEntry) {
    e = static_cast<TagArray::EntryIndex>(es.size());
    es.push_back({.slot = slot, .line = line, .meta = {}});
    t.set_entry(slot, e);
  }
  SpecState& m = es[e].meta;
  SubBlockMask q = quantize(mask, detector_.nsub());
  // MUTATION kWrongSubblockIndexMath: commit the architectural bits under a
  // rotated sub-block index (classic off-by-one in index math) while the
  // byte-exact masks stay correct — the mask/bit-agreement invariant in
  // check_invariants() kills it.
  if (mutation_ == ProtocolMutation::kWrongSubblockIndexMath) {
    const std::uint32_t n = detector_.nsub();
    if (n > 1) {
      q = static_cast<SubBlockMask>(((q << 1) | (q >> (n - 1))) &
                                    ((SubBlockMask{1} << n) - 1));
    }
  }
  if (is_write) {
    // MUTATION kSkipWrittenMask: set the architectural S-WR bits but "forget"
    // the byte-exact write mask — the mask/bit-agreement invariant kills it.
    if (mutation_ != ProtocolMutation::kSkipWrittenMask) {
      m.write_bytes |= mask;
    }
  } else {
    m.read_bytes |= mask;
  }
  // Word-wide kTxRead/kTxWrite over all touched sub-blocks (a read of an
  // S-WR sub-block leaves it S-WR — LUT row 0b11).
  m.bits.apply_tx(q, is_write);
}

TxFootprint MemorySystem::tx_footprint(CoreId core) const {
  TxFootprint fp;
  const std::uint32_t nsub = detector_.nsub();
  // Pure sum over disjoint per-line state; every visit order yields the
  // same totals.
  for (const SpecEntry& e : entries_[core]) {
    const SpecState& meta = e.meta;
    if (meta.read_bytes != 0) {
      ++fp.read_lines;
      fp.read_subs += static_cast<std::uint32_t>(
          std::popcount(quantize(meta.read_bytes, nsub)));
    }
    if (meta.write_bytes != 0) {
      ++fp.write_lines;
      fp.write_subs += static_cast<std::uint32_t>(
          std::popcount(quantize(meta.write_bytes, nsub)));
    }
  }
  return fp;
}

Cycle MemorySystem::bus_acquire() {
  if (cfg_.bus_occupancy == 0) return 0;
  const Cycle now = kernel_.now();
  const Cycle start = bus_free_at_ > now ? bus_free_at_ : now;
  bus_free_at_ = start + cfg_.bus_occupancy;
  stats_.bus_wait_cycles += start - now;
  return start - now;
}

MemorySystem::ProbeOutcome MemorySystem::probe_remotes(CoreId requester,
                                                       Addr line,
                                                       ByteMask mask,
                                                       bool invalidating,
                                                       SubBlockMask* piggyback) {
  ProbeOutcome out;
  ++stats_.probes_sent;
  const bool oracle = detector_.global_oracle();

  for (CoreId o = 0; o < cfg_.ncores; ++o) {
    if (o == requester) continue;
    TagArray& tl1 = l1_[o];
    TagArray::Slot slot = tl1.find(line);
    // For probe-based detectors, a core without the line in its L1 tag array
    // can neither conflict (its metadata lives in the way) nor react in
    // MOESI terms — skip it. The oracle keeps the full broadcast: an orphan
    // entry of its outlives residency, and the avoided-false accounting
    // below needs it.
    if (slot == TagArray::kNoSlot && !oracle) continue;

    // --- conflict detection against o's speculative state -----------------
    bool retain = false;
    bool doomed = false;
    const TagArray::EntryIndex e =
        slot != TagArray::kNoSlot ? tl1.entry(slot) : find_orphan(o, line);
    if (e != TagArray::kNoEntry && txctl_ && txctl_->in_tx(o)) {
      const SpecState& meta = entries_[o][e].meta;
      const ProbeCheck pc = detector_.check_probe(meta, mask, invalidating);
      if (pc.conflict) {
        const ConflictRecord rec =
            conflict_record(requester, o, line, mask, invalidating, meta);
        stats_.on_conflict(rec);
        // Contention policy (docs/contention.md): under the default
        // requester-wins this dooms o exactly like the historical direct
        // doom() call. Other policies may rule the REQUESTER the loser:
        // the probe is then nacked — no MOESI effect here or at any
        // later core — and the outcome propagates up so the requester
        // self-aborts instead of completing the access.
        if (txctl_->resolve_conflict(o, rec)) {
          out.requester_lost = true;
          return out;
        }
        doomed = true;  // requester won: o was doomed (clear_spec ran)
      } else {
        // This detector declined a conflict baseline ASF would have
        // signaled (and, for the oracle, that the oracle will not signal
        // either).
        const ByteMask relevant = relevant_bytes(meta, invalidating);
        if (relevant != 0 &&
            !(oracle && true_conflict(meta, mask, invalidating))) {
          stats_.on_avoided_false_conflict();
          prov::ProvCollector::Attribution at;
          if (prov_ != nullptr) {
            at = prov_->on_avoided(line, mask, relevant);
          }
          if (hub_ != nullptr) {
            hub_->emit(trace::conflict_event(
                trace::TraceEventKind::kAvoided,
                conflict_record(requester, o, line, mask, invalidating,
                                meta),
                prov_ != nullptr ? &at : nullptr));
          }
        }
        if (pc.piggyback != 0 && piggyback != nullptr) {
          *piggyback |= pc.piggyback;
          ++stats_.piggyback_messages;
        }
        retain = pc.retain_spec_info;
        // MUTATION kForgetInvalidatedSpecinfo: drop the victim's
        // speculative info (and its metadata, so no structural audit can
        // see the hole) instead of retaining it inside the invalidated
        // line (§IV-B). Only the serializability replay catches the
        // missed late conflict.
        if (retain &&
            mutation_ == ProtocolMutation::kForgetInvalidatedSpecinfo) {
          retain = false;
          erase_entry(o, e);
        }
      }
    }

    // --- MOESI state handling ---------------------------------------------
    // A doom may have dropped o's lines (clear_spec); re-find then. Drops
    // never move other slots, so the cached slot is otherwise still good.
    if (doomed) slot = tl1.find(line);
    if (slot != TagArray::kNoSlot && tl1.valid(slot)) {
      out.remote_owner = true;  // any valid remote copy can supply (c2c)
      if (invalidating) {
        if (retain) {
          tl1.retain_invalid(slot);  // speculative info stays inside the line
        } else {
          drop_l1(o, slot);
        }
        l2_[o].drop(line);
        l3_[o].drop(line);
      } else {
        const Moesi st = tl1.state(slot);
        if (st == Moesi::kModified) tl1.set_state(slot, Moesi::kOwned);
        if (st == Moesi::kExclusive) tl1.set_state(slot, Moesi::kShared);
      }
    }
  }
  return out;
}

bool MemorySystem::evict_speculative_line(CoreId core) {
  // Deterministic victim choice: the lowest-addressed speculative line.
  // Entry order (insertion, then swap-removals) never picks the victim; the
  // min-reduce below is order-insensitive.
  const std::vector<SpecEntry>& es = entries_[core];
  if (es.empty()) return false;
  TagArray::EntryIndex victim = 0;
  for (TagArray::EntryIndex e = 1; e < es.size(); ++e) {
    if (es[e].line < es[victim].line) victim = e;
  }
  const Addr line = es[victim].line;
  if (es[victim].slot != TagArray::kNoSlot) {
    l1_[core].drop_slot(es[victim].slot);
  }
  l2_[core].drop(line);
  l3_[core].drop(line);
  // The entry dies with the imminent capacity abort; erase it now so the
  // metadata-residency invariant holds at every audit point.
  erase_entry(core, victim);
  return true;
}

TagArray::Slot MemorySystem::fill_l1(CoreId core, TagArray::Slot slot,
                                     Addr line, Moesi state) {
  TagArray& t = l1_[core];
  // A line can already be present as an invalid-but-retained entry (paper
  // §IV-B); refetching revalidates that way, never duplicates the tag. The
  // full-line refetch brings fresh data, so the way's Dirty marks go.
  if (slot != TagArray::kNoSlot) {
    t.set_state(slot, state);
    t.set_dirty(slot, 0);
    t.touch_slot(slot);
    return slot;
  }
  // Pinned = "the way holds a speculative entry".
  const TagArray::Slot victim = t.find_victim(line);
  if (victim == TagArray::kNoSlot) {
    return TagArray::kNoSlot;  // every way pinned: capacity abort
  }
  t.fill(victim, line, state);
  // The perfect detector's entry survives the loss of its way: the refill
  // re-attaches it, so a resident line's entry is always its way's.
  if (const TagArray::EntryIndex e = find_orphan(core, line);
      e != TagArray::kNoEntry) {
    entries_[core][e].slot = victim;
    t.set_entry(victim, e);
    --orphans_[core];
  }
  return victim;
}

ConflictRecord MemorySystem::conflict_record(CoreId requester, CoreId victim,
                                             Addr line, ByteMask probe,
                                             bool invalidating,
                                             const SpecState& meta) const {
  const Classification cls = classify_conflict(meta, probe, invalidating);
  return {.requester = requester,
          .victim = victim,
          .line = line,
          .probe_bytes = probe,
          .victim_bytes = relevant_bytes(meta, invalidating),
          .invalidating = invalidating,
          .is_false = cls.is_false,
          .type = cls.type,
          .cycle = kernel_.now()};
}

bool MemorySystem::oracle_check(CoreId requester, Addr line, ByteMask mask,
                                bool is_write) {
  for (CoreId o = 0; o < cfg_.ncores; ++o) {
    if (o == requester || entries_[o].empty()) continue;
    const SpecEntry* e = find_entry(o, line);
    if (e == nullptr || txctl_ == nullptr || !txctl_->in_tx(o)) continue;
    const SpecState& meta = e->meta;
    if (!true_conflict(meta, mask, is_write)) continue;
    // The oracle finds true conflicts only: rec.is_false is always false.
    const ConflictRecord rec =
        conflict_record(requester, o, line, mask, is_write, meta);
    stats_.on_conflict(rec);
    // Same policy hook as probe_remotes: a losing requester stops checking
    // (it is about to self-abort; its freshly-recorded speculative state
    // dies with it in clear_spec).
    if (txctl_->resolve_conflict(o, rec)) return true;
  }
  return false;
}

bool MemorySystem::would_broadcast(CoreId core, Addr addr, std::uint32_t size,
                                   bool is_write, bool is_tx) const {
  const Addr line = line_of(addr);
  const TagArray& t = l1_[core];
  const TagArray::Slot s = t.find(line);
  const bool valid = s != TagArray::kNoSlot && t.valid(s);
  if (!valid) return true;  // miss (or retained-invalid): probes
  if (is_write) {
    return t.state(s) != Moesi::kModified && t.state(s) != Moesi::kExclusive;
  }
  return is_tx && detector_.dirty_hit(t.dirty(s), byte_mask_of(addr, size));
}

AccessResult MemorySystem::access(CoreId core, Addr addr, std::uint32_t size,
                                  bool is_write, bool is_tx) {
  assert(txctl_ != nullptr);
  assert(size >= 1 && size <= 8);
  assert(addr % size == 0 && "guest accesses must be naturally aligned");
  const Addr line = line_of(addr);
  const ByteMask mask = byte_mask_of(addr, size);

  ++stats_.accesses;
  if (is_tx) {
    ++stats_.tx_accesses;
    stats_.on_tx_access(line_offset(addr));
  }

  AccessResult r;
  if (fault_ != nullptr && is_tx) {
    // Capacity-pressure fault: one of the requester's own speculative lines
    // is pushed out, which ASF surfaces as a capacity abort.
    if (!entries_[core].empty() && fault_->forced_eviction(core) &&
        evict_speculative_line(core)) {
      r.capacity_abort = true;
      r.latency = cfg_.l1.latency;
      return r;
    }
    // Spurious abort: the access dooms its own transaction for no
    // architectural reason (ASF explicitly permits this).
    if (fault_->spurious_abort(core)) {
      r.spurious_abort = true;
      r.latency = cfg_.l1.latency;
      return r;
    }
  }
  TagArray& l1 = l1_[core];
  TagArray::Slot slot = l1.find(line);
  const bool valid = slot != TagArray::kNoSlot && l1.valid(slot);

  auto source_latency = [&](bool remote_owner) -> Cycle {
    if (remote_owner) {
      ++stats_.c2c_transfers;
      r.source = DataSource::kRemoteL1;
      return cfg_.cache2cache_latency;
    }
    // A miss fills the level on the way (private, inclusive-ish).
    if (l2_[core].lookup_or_fill(line)) {
      ++stats_.l2_hits;
      r.source = DataSource::kL2;
      return cfg_.l2.latency;
    }
    if (l3_[core].lookup_or_fill(line)) {
      ++stats_.l3_hits;
      r.source = DataSource::kL3;
      return cfg_.l3.latency;
    }
    ++stats_.mem_fetches;
    r.source = DataSource::kMemory;
    return cfg_.mem_latency;
  };

  if (is_write) {
    if (valid && (l1.state(slot) == Moesi::kModified ||
                  l1.state(slot) == Moesi::kExclusive)) {
      l1.set_state(slot, Moesi::kModified);
      l1.touch_slot(slot);
      ++stats_.l1_hits;
      r.latency = cfg_.l1.latency;
    } else {
      const Cycle bus_wait = bus_acquire();
      SubBlockMask pb = 0;
      const ProbeOutcome po = probe_remotes(core, line, mask, true, &pb);
      if (po.requester_lost) {
        // Policy nack (never taken under requester-wins): no upgrade, no
        // fill, no speculative bookkeeping — the requester self-aborts.
        r.requester_lost = true;
        r.latency = bus_wait + cfg_.l1.latency;
        return r;
      }
      // (invalidating probes never produce piggyback info)
      // doom() handling cannot touch our line; the slot stays good.
      r.latency += bus_wait;
      if (fault_ != nullptr) r.latency += fault_->probe_jitter(core);
      if (valid) {
        // S or O upgrade: data already local, pay the invalidation round trip.
        l1.set_state(slot, Moesi::kModified);
        l1.touch_slot(slot);
        ++stats_.upgrades;
        r.latency += cfg_.upgrade_latency;
      } else {
        r.latency += source_latency(po.remote_owner);
        slot = fill_l1(core, slot, line, Moesi::kModified);
        if (slot == TagArray::kNoSlot) {
          r.capacity_abort = true;
          return r;
        }
      }
    }
  } else {  // load
    const bool dirty_force =
        valid && is_tx && detector_.dirty_hit(l1.dirty(slot), mask);
    if (valid && !dirty_force) {
      l1.touch_slot(slot);
      ++stats_.l1_hits;
      r.latency = cfg_.l1.latency;
    } else {
      const Cycle bus_wait = bus_acquire();
      SubBlockMask pb = 0;
      const ProbeOutcome po = probe_remotes(core, line, mask, false, &pb);
      if (po.requester_lost) {
        r.requester_lost = true;  // policy nack: see the write path above
        r.latency = bus_wait + cfg_.l1.latency;
        return r;
      }
      r.latency = bus_wait + source_latency(po.remote_owner);
      if (fault_ != nullptr) r.latency += fault_->probe_jitter(core);
      if (valid) {
        // Dirty-forced refetch: the line stays resident; its stale marks
        // give way to the fresh piggy-back info set below.
        ++stats_.dirty_refetches;
        l1.touch_slot(slot);
      } else {
        const Moesi st = po.remote_owner ? Moesi::kShared : Moesi::kExclusive;
        slot = fill_l1(core, slot, line, st);
        if (slot == TagArray::kNoSlot) {
          r.capacity_abort = true;
          return r;
        }
      }
      // MUTATION kStalePiggybackMask: apply the PREVIOUS fill response's
      // piggy-backed S-WR set instead of the one that just arrived (a
      // buffered-response reuse bug) — the piggyback-coverage invariant in
      // check_invariants() kills it.
      if (mutation_ == ProtocolMutation::kStalePiggybackMask) {
        pb = std::exchange(stale_pb_[core], pb);
      }
      // MUTATION kDropDirtySubblock: discard the piggy-backed S-WR set
      // instead of marking those sub-blocks Dirty (§IV-C / Fig 7). Replay
      // alone cannot see this (commit-time validation rescues the schedule);
      // the piggyback-coverage invariant in check_invariants() kills it.
      l1.set_dirty(slot,
                   mutation_ == ProtocolMutation::kDropDirtySubblock ? 0 : pb);
    }
  }

  if (is_tx) record_spec_access(core, slot, line, mask, is_write);
  if (detector_.global_oracle() && oracle_check(core, line, mask, is_write)) {
    r.requester_lost = true;
  }
  return r;
}

void MemorySystem::validate_readers_at_commit(CoreId committer, Addr line,
                                              ByteMask written) {
  if (detector_.global_oracle()) return;  // the oracle never misses
  // MUTATION kSkipCommitValidation: reopen the silent-store window that
  // retention creates (DESIGN.md §6.5) — the serializability replay kills it.
  if (mutation_ == ProtocolMutation::kSkipCommitValidation) return;
  // Only probe-based detectors reach this point (the oracle returned
  // above), so any reader metadata for `line` sits in the way holding it —
  // cores whose L1 does not hold the line (valid or retained) are skipped.
  for (CoreId o = 0; o < cfg_.ncores; ++o) {
    if (o == committer || entries_[o].empty()) continue;
    const TagArray::Slot s = l1_[o].find(line);
    if (s == TagArray::kNoSlot) continue;
    const TagArray::EntryIndex e = l1_[o].entry(s);
    if (e == TagArray::kNoEntry || txctl_ == nullptr || !txctl_->in_tx(o)) {
      continue;
    }
    const SpecState& meta = entries_[o][e].meta;
    if (!true_conflict(meta, written, /*invalidating=*/true)) continue;
    const ConflictRecord rec =
        conflict_record(committer, o, line, written, true, meta);
    stats_.on_conflict(rec);
    txctl_->doom(o, rec);
  }
}

std::string MemorySystem::check_invariants() const {
  // Way/entry links: an entry's way holds its line and points back at it,
  // and a way's entry index names an entry that points back at the way. An
  // orphan (perfect detector only) is counted and its line is not resident
  // — a refill re-attaches it.
  for (CoreId c = 0; c < cfg_.ncores; ++c) {
    const TagArray& t = l1_[c];
    const std::vector<SpecEntry>& es = entries_[c];
    auto where = [c](Addr line) {
      return "core " + std::to_string(c) + " line " + std::to_string(line);
    };
    std::uint32_t orphans = 0;
    for (TagArray::EntryIndex e = 0; e < es.size(); ++e) {
      if (es[e].slot == TagArray::kNoSlot) {
        ++orphans;
        if (t.find(es[e].line) != TagArray::kNoSlot) {
          return where(es[e].line) +
                 ": orphan speculative entry for a resident line";
        }
      } else if (t.line(es[e].slot) != es[e].line ||
                 t.entry(es[e].slot) != e) {
        return where(es[e].line) +
               ": speculative entry's way does not point back at it";
      }
    }
    if (orphans != orphans_[c]) {
      return "core " + std::to_string(c) + ": orphan count is stale";
    }
    for (TagArray::Slot s = 0; s < t.num_slots(); ++s) {
      const TagArray::EntryIndex e = t.entry(s);
      if (e != TagArray::kNoEntry && (e >= es.size() || es[e].slot != s)) {
        return where(t.line(s)) +
               ": way names a speculative entry that is not its own";
      }
    }
  }
  // Candidate lines: everything any core's metadata or dirty marks mention
  // (the interesting lines); exclusivity is verified by direct state
  // queries on each of them. The candidate set is sorted and deduplicated
  // so that the FIRST violation reported — which the chaos oracles match on
  // and operators diff across runs — does not depend on entry order.
  std::vector<Addr> lines;
  for (CoreId c = 0; c < cfg_.ncores; ++c) {
    for (const SpecEntry& e : entries_[c]) lines.push_back(e.line);
    const TagArray& t = l1_[c];
    for (TagArray::Slot s = 0; s < t.num_slots(); ++s) {
      if (t.dirty(s) != 0) lines.push_back(t.line(s));
    }
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  for (const Addr line : lines) {
    int m_or_e = 0, owned = 0, valid = 0;
    for (CoreId c = 0; c < cfg_.ncores; ++c) {
      const Moesi st = l1_state(c, line);
      if (st == Moesi::kModified || st == Moesi::kExclusive) ++m_or_e;
      if (st == Moesi::kOwned) ++owned;
      if (st != Moesi::kInvalid) ++valid;
    }
    if (m_or_e > 1) {
      return "line " + std::to_string(line) + ": multiple M/E holders";
    }
    if (m_or_e == 1 && valid > 1) {
      return "line " + std::to_string(line) + ": M/E coexists with copies";
    }
    if (owned > 1) {
      return "line " + std::to_string(line) + ": multiple O owners";
    }
  }
  // Metadata residency + mask/bit agreement. Residency only binds the
  // probe-based detectors: the perfect oracle checks metadata centrally and
  // deliberately survives invalidation (its upper-bound role).
  const bool oracle = detector_.global_oracle();
  for (CoreId c = 0; c < cfg_.ncores; ++c) {
    for (const Addr line : lines) {
      const SpecEntry* e = find_entry(c, line);
      if (e == nullptr) continue;
      const SpecState& meta = e->meta;
      const TagArray::Slot s = e->slot;
      if (s == TagArray::kNoSlot && !oracle) {
        return "core " + std::to_string(c) + " line " + std::to_string(line) +
               ": speculative metadata without a resident line";
      }
      const std::uint32_t n = detector_.nsub();
      const SubBlockMask expect_spec = static_cast<SubBlockMask>(
          quantize(meta.read_bytes | meta.write_bytes, n));
      const SubBlockMask expect_wr =
          static_cast<SubBlockMask>(quantize(meta.write_bytes, n));
      if (meta.bits.spec != expect_spec || meta.bits.wr != expect_wr) {
        return "core " + std::to_string(c) + " line " + std::to_string(line) +
               ": sub-block bits disagree with byte masks";
      }
      if (s != TagArray::kNoSlot && l1_[c].retained(s) && l1_[c].valid(s)) {
        return "core " + std::to_string(c) + " line " + std::to_string(line) +
               ": retained flag on a valid line";
      }
    }
  }
  // Piggyback coverage (paper §IV-C): while core c's transaction holds S-WR
  // sub-blocks on a line, every OTHER core with a load-origin copy (S or E —
  // such a copy can only come from a non-invalidating fill, whose response
  // piggy-backs the S-WR set) must carry Dirty marks covering those
  // sub-blocks. M/O holders are exempt: write-origin fills carry no
  // piggyback and are protected by commit-time reader validation instead.
  if (txctl_ != nullptr && detector_.dirty_handling()) {
    for (CoreId c = 0; c < cfg_.ncores; ++c) {
      if (!txctl_->in_tx(c)) continue;
      for (const Addr line : lines) {
        const SpecEntry* e = find_entry(c, line);
        if (e == nullptr) continue;
        const SubBlockMask swr = e->meta.bits.spec_written();
        if (swr == 0) continue;
        for (CoreId o = 0; o < cfg_.ncores; ++o) {
          if (o == c) continue;
          const Moesi st = l1_state(o, line);
          if (st != Moesi::kShared && st != Moesi::kExclusive) continue;
          if ((dirty_marks(o, line) & swr) != swr) {
            return "core " + std::to_string(o) + " line " +
                   std::to_string(line) +
                   ": S/E copy missing Dirty marks for core " +
                   std::to_string(c) + "'s S-WR sub-blocks (piggyback lost)";
          }
        }
      }
    }
  }
  return {};
}

void MemorySystem::clear_spec(CoreId core, bool discard_written_lines) {
  // Per-line drops touch disjoint cache entries; no cross-line effect
  // depends on visit order.
  TagArray& t = l1_[core];
  for (const SpecEntry& e : entries_[core]) {
    if (e.slot == TagArray::kNoSlot) continue;  // an orphan has no way
    if (t.retained(e.slot)) {
      // Invalid-but-retained line: its speculative info dies with the tx.
      t.drop_slot(e.slot);
    } else if (discard_written_lines && e.meta.write_bytes != 0) {
      // Abort: discard speculatively-modified lines (ASF §IV-A).
      t.drop_slot(e.slot);
      l2_[core].drop(e.line);
      l3_[core].drop(e.line);
    } else {
      // Clean speculatively-read lines stay valid; committed written lines
      // stay Modified (their data is now the committed data). Their entry
      // dies here, and with it the way's pin.
      t.set_entry(e.slot, TagArray::kNoEntry);
    }
  }
  entries_[core].clear();
  orphans_[core] = 0;
}

}  // namespace asfsim
