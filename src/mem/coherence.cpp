#include "mem/coherence.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/classifier.hpp"
#include "fault/plan.hpp"
#include "sim/kernel.hpp"
#include "trace/sink.hpp"

namespace asfsim {

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
  for (std::uint32_t c = 0; c < cfg_.ncores; ++c) {
    l1_.emplace_back(cfg_.l1);
    l2_.emplace_back(cfg_.l2);
    l3_.emplace_back(cfg_.l3);
  }
  spec_meta_.resize(cfg_.ncores);
  spec_lines_.resize(cfg_.ncores);
  dirty_marks_.resize(cfg_.ncores);
  stale_pb_.assign(cfg_.ncores, 0);
}

bool MemorySystem::line_pinned(CoreId core, Addr line) const {
  return spec_meta_[core].find(line) != spec_meta_[core].end();
}

const SpecState* MemorySystem::spec_state(CoreId core, Addr line) const {
  auto it = spec_meta_[core].find(line);
  return it == spec_meta_[core].end() ? nullptr : &it->second;
}

SubBlockMask MemorySystem::dirty_marks(CoreId core, Addr line) const {
  auto it = dirty_marks_[core].find(line);
  return it == dirty_marks_[core].end() ? SubBlockMask{0} : it->second;
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
  AddrMap<SpecState>& meta = spec_meta_[core];
  const std::size_t before = meta.size();
  SpecState& m = meta[line];
  if (meta.size() != before) spec_lines_[core].push_back(line);
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
  // Keep the L1 speculative-summary bit in sync with metadata existence so
  // incoming probes can skip the metadata lookup for untouched lines. The
  // line is resident at `slot`: access() fills it before recording and
  // passes the slot it already holds.
  assert(l1_[core].line(slot) == line);
  l1_[core].set_spec_flag(slot, true);
}

TxFootprint MemorySystem::tx_footprint(CoreId core) const {
  TxFootprint fp;
  const std::uint32_t nsub = detector_.nsub();
  // Pure sum over disjoint per-line state; every visit order yields the
  // same totals.
  for (const Addr line : spec_lines_[core]) {
    const SpecState& meta = spec_meta_[core].find(line)->second;
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
    // can neither conflict (the spec gate below requires a resident slot)
    // nor react in MOESI terms — skip it. The oracle keeps the full
    // broadcast: its metadata outlives residency.
    if (slot == TagArray::kNoSlot && !oracle) continue;

    // --- conflict detection against o's speculative state -----------------
    // Early-outs before the metadata hash lookup: a core with no metadata at
    // all, or (for probe-based detectors) no speculative-summary bit on the
    // resident line, cannot be a victim — metadata residency guarantees the
    // bit is authoritative. The global oracle bypasses the gate: its
    // metadata deliberately survives invalidation and eviction, and the
    // avoided-false accounting below needs the lookup even when no resident
    // line exists.
    bool retain = false;
    bool doomed = false;
    const bool may_hold_spec =
        !spec_meta_[o].empty() &&
        (oracle || (slot != TagArray::kNoSlot && tl1.spec_flag(slot)));
    if (may_hold_spec && txctl_ && txctl_->in_tx(o)) {
      const auto it = spec_meta_[o].find(line);
      const SpecState* mp = it == spec_meta_[o].end() ? nullptr : &it->second;
      if (mp != nullptr) {
        const SpecState& meta = *mp;
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
            erase_spec(o, line);
            if (slot != TagArray::kNoSlot) tl1.set_spec_flag(slot, false);
          }
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
          tl1.drop_slot(slot);
          dirty_marks_[o].erase(line);
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
  // Container order (spec_meta_'s hash slots, spec_lines_' swap-removals)
  // never picks the victim; the min-reduce below is order-insensitive.
  Addr victim = ~Addr{0};
  for (const Addr line : spec_lines_[core]) {
    if (line < victim) victim = line;
  }
  if (victim == ~Addr{0}) return false;
  if (const TagArray::Slot s = l1_[core].find(victim);
      s != TagArray::kNoSlot) {
    l1_[core].drop_slot(s);
  }
  l2_[core].drop(victim);
  l3_[core].drop(victim);
  dirty_marks_[core].erase(victim);
  // The entry dies with the imminent capacity abort; erase it now so the
  // metadata-residency invariant holds at every audit point.
  erase_spec(core, victim);
  return true;
}

void MemorySystem::erase_spec(CoreId core, Addr line) {
  if (spec_meta_[core].erase(line) == 0) return;
  std::vector<Addr>& lines = spec_lines_[core];
  *std::find(lines.begin(), lines.end(), line) = lines.back();
  lines.pop_back();
}

TagArray::Slot MemorySystem::fill_l1(CoreId core, Addr line, Moesi state) {
  TagArray& t = l1_[core];
  // A line can already be present as an invalid-but-retained entry (paper
  // §IV-B); refetching must revalidate that entry, never duplicate the tag.
  if (const TagArray::Slot s = t.find(line); s != TagArray::kNoSlot) {
    t.set_state(s, state);
    t.touch_slot(s);
    return s;
  }
  // Pinned = "holds live speculative metadata". For probe-based detectors
  // the L1 speculative-summary flag IS that predicate (both directions are
  // audited in check_invariants), so victim search reads the flag instead of
  // paying a metadata hash lookup per occupied way. The oracle's metadata
  // survives eviction/refetch (flag lost on refill), so it keeps the map
  // lookup.
  const TagArray::Slot victim =
      detector_.global_oracle()
          ? t.find_victim(line, [&](Addr vl) { return line_pinned(core, vl); })
          : t.find_victim_unflagged(line);
  if (victim == TagArray::kNoSlot) {
    return TagArray::kNoSlot;  // every way pinned: capacity abort
  }
  if (t.line(victim) != TagArray::kEmptyTag) {
    dirty_marks_[core].erase(t.line(victim));
  }
  t.fill(victim, line, state);
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
    if (o == requester || spec_meta_[o].empty()) continue;
    auto it = spec_meta_[o].find(line);
    if (it == spec_meta_[o].end() || txctl_ == nullptr || !txctl_->in_tx(o)) {
      continue;
    }
    const SpecState& meta = it->second;
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
  // dirty_hit is identically false unless the detector does dirty handling,
  // and trivially false with no marks — both gates checked before the
  // mark lookup.
  return is_tx && detector_.dirty_handling() && !dirty_marks_[core].empty() &&
         detector_.dirty_hit(dirty_marks(core, line), byte_mask_of(addr, size));
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
    if (!spec_meta_[core].empty() && fault_->forced_eviction(core) &&
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
        slot = fill_l1(core, line, Moesi::kModified);
        if (slot == TagArray::kNoSlot) {
          r.capacity_abort = true;
          return r;
        }
        dirty_marks_[core].erase(line);  // full-line refetch
      }
    }
  } else {  // load
    // Same double gate as would_broadcast(): skip the mark lookup whenever
    // it cannot possibly fire.
    const bool dirty_force =
        valid && is_tx && detector_.dirty_handling() &&
        !dirty_marks_[core].empty() &&
        detector_.dirty_hit(dirty_marks(core, line), mask);
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
        // Dirty-forced refetch: the line stays resident; its stale marks are
        // cleared and fresh piggy-back info (if any) re-applied below.
        ++stats_.dirty_refetches;
        dirty_marks_[core].erase(line);
        l1.touch_slot(slot);
      } else {
        const Moesi st = po.remote_owner ? Moesi::kShared : Moesi::kExclusive;
        slot = fill_l1(core, line, st);
        if (slot == TagArray::kNoSlot) {
          r.capacity_abort = true;
          return r;
        }
        dirty_marks_[core].erase(line);
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
      if (pb != 0 && mutation_ != ProtocolMutation::kDropDirtySubblock) {
        dirty_marks_[core][line] |= pb;
      }
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
  // above), so any reader metadata for `line` implies tag-array residency
  // (metadata-residency invariant) — cores whose L1 does not hold the line
  // (valid or retained) are skipped before the metadata lookup.
  for (CoreId o = 0; o < cfg_.ncores; ++o) {
    if (o == committer || spec_meta_[o].empty()) continue;
    if (l1_[o].find(line) == TagArray::kNoSlot) continue;
    auto it = spec_meta_[o].find(line);
    if (it == spec_meta_[o].end() || txctl_ == nullptr || !txctl_->in_tx(o)) {
      continue;
    }
    const SpecState& meta = it->second;
    if (!true_conflict(meta, written, /*invalidating=*/true)) continue;
    const ConflictRecord rec =
        conflict_record(committer, o, line, written, true, meta);
    stats_.on_conflict(rec);
    txctl_->doom(o, rec);
  }
}

std::string MemorySystem::check_invariants() const {
  // Candidate lines: everything any core's metadata or dirty marks mention
  // (the interesting lines); exclusivity is verified by direct state
  // queries on each of them. The candidate set is sorted and deduplicated
  // so that the FIRST violation reported — which the chaos oracles match on
  // and operators diff across runs — is the same on every stdlib, not an
  // accident of unordered_map enumeration order.
  std::vector<Addr> lines;
  for (CoreId c = 0; c < cfg_.ncores; ++c) {
    // The dense spec-line list must be exactly spec_meta_'s key set: a
    // missing line would escape clear_spec, a stale or duplicate one would
    // be walked after its metadata is gone.
    std::vector<Addr> keys;
    for (const auto& [line, meta] : spec_meta_[c]) keys.push_back(line);
    std::vector<Addr> listed = spec_lines_[c];
    std::sort(keys.begin(), keys.end());
    std::sort(listed.begin(), listed.end());
    if (listed != keys) {
      return "core " + std::to_string(c) +
             ": speculative line list disagrees with the metadata map";
    }
    for (const Addr line : keys) lines.push_back(line);
    for (const auto& [line, marks] : dirty_marks_[c]) lines.push_back(line);
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
  // deliberately survives invalidation + eviction (its upper-bound role).
  const bool oracle = detector_.global_oracle();
  for (CoreId c = 0; c < cfg_.ncores; ++c) {
    for (const Addr line : lines) {
      const auto it = spec_meta_[c].find(line);
      if (it == spec_meta_[c].end()) continue;
      const SpecState& meta = it->second;
      const TagArray::Slot s = l1_[c].find(line);
      if (s == TagArray::kNoSlot && !oracle) {
        return "core " + std::to_string(c) + " line " + std::to_string(line) +
               ": speculative metadata without a resident line";
      }
      if (s != TagArray::kNoSlot && !oracle && !l1_[c].spec_flag(s)) {
        return "core " + std::to_string(c) + " line " + std::to_string(line) +
               ": speculative metadata but summary flag clear";
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
    // Converse direction of the summary-flag audit: a set flag with no
    // backing metadata would only cost performance, but it means a clear
    // path was missed — fail loudly.
    const TagArray& t = l1_[c];
    for (TagArray::Slot s = 0; s < t.num_slots(); ++s) {
      if (t.line(s) == TagArray::kEmptyTag) continue;
      if (t.spec_flag(s) &&
          spec_meta_[c].find(t.line(s)) == spec_meta_[c].end()) {
        return "core " + std::to_string(c) + " line " +
               std::to_string(t.line(s)) +
               ": speculative summary flag without metadata";
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
        const auto it = spec_meta_[c].find(line);
        if (it == spec_meta_[c].end()) continue;
        const SpecState& meta = it->second;
        const SubBlockMask swr = meta.bits.spec_written();
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
  for (const Addr line : spec_lines_[core]) {
    const TagArray::Slot s = l1_[core].find(line);
    if (s == TagArray::kNoSlot) continue;
    if (l1_[core].retained(s)) {
      // Invalid-but-retained line: its speculative info dies with the tx.
      l1_[core].drop_slot(s);
    } else if (discard_written_lines &&
               spec_meta_[core].find(line)->second.write_bytes != 0) {
      // Abort: discard speculatively-modified lines (ASF §IV-A).
      l1_[core].drop_slot(s);
      l2_[core].drop(line);
      l3_[core].drop(line);
      dirty_marks_[core].erase(line);
    } else {
      // Clean speculatively-read lines stay valid; committed written lines
      // stay Modified (their data is now the committed data). Their
      // metadata dies here, so the probe summary flag must die with it.
      l1_[core].set_spec_flag(s, false);
    }
  }
  spec_meta_[core].clear();
  spec_lines_[core].clear();
}

}  // namespace asfsim
