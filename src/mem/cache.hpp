// Per-core cache tag state. Data never lives here — functional data flows
// through the BackingStore plus per-transaction overlays — so both classes
// are purely timing/occupancy models, which is all the paper's results
// depend on.
//
// TagArray is the L1: a set-associative array with true-LRU replacement
// whose ways carry MOESI state, the retained flag (paper §IV-B) and the
// speculative summary. Its layout is SoA (docs/performance.md): the
// set-probe loop walks a dense vector of line tags — one host cache line
// covers a whole set — and the per-way MOESI/retained/spec-summary metadata
// lives in a separate packed byte vector that only hit processing touches.
// An empty way holds the kEmptyTag sentinel (never a legal line-aligned
// address), so find() is a pure tag compare with no per-way validity test:
// tag occupancy and the "valid or retained" predicate are the same thing by
// construction. Ways are addressed by Slot (a stable index into the SoA
// vectors). drop_slot() clears a slot in place and never shifts its
// neighbours, so a Slot obtained from find() stays pointing at the same way
// across drops of other lines.
//
// RecencyTags is a private L2/L3. Those levels only charge latency, never
// pin a way and hold no slot across operations, so their observable state
// is each set's lines and their recency order, which is all it stores:
// `ways` 32-bit tags per set, most recently used first.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/addr.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// MOESI coherence states; kInvalid doubles as "empty way".
enum class Moesi : std::uint8_t {
  kInvalid = 0,
  kShared,
  kExclusive,
  kOwned,
  kModified,
};

[[nodiscard]] const char* to_string(Moesi s);

class TagArray {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};
  /// Sentinel tag for an empty way; low line-offset bits set, so it can
  /// never equal a line-aligned address.
  static constexpr Addr kEmptyTag = ~Addr{0};

  explicit TagArray(const CacheLevelConfig& cfg);

  [[nodiscard]] std::uint32_t num_sets() const { return sets_; }
  [[nodiscard]] std::uint32_t ways() const { return ways_; }
  [[nodiscard]] std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(tags_.size());
  }

  /// Find the slot holding `line` (valid or retained), or kNoSlot. The set
  /// index and tag are computed once; the loop is a pure compare over the
  /// dense tag vector.
  [[nodiscard]] Slot find(Addr line) const {
    const std::uint32_t base = set_base(line);
    const Addr* tag = tags_.data() + base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tag[w] == line) return base + w;
    }
    return kNoSlot;
  }

  // ---- per-slot accessors -------------------------------------------------
  [[nodiscard]] Addr line(Slot s) const { return tags_[s]; }
  [[nodiscard]] Moesi state(Slot s) const {
    return static_cast<Moesi>(meta_[s] & kStateMask);
  }
  [[nodiscard]] bool valid(Slot s) const {
    return (meta_[s] & kStateMask) != 0;
  }
  [[nodiscard]] bool retained(Slot s) const {
    return (meta_[s] & kRetainedBit) != 0;
  }
  /// Per-line speculative summary: the coherence layer keeps this bit equal
  /// to "this core has live speculative metadata for this line", giving
  /// probes an early-out before the metadata lookup and sub-block walk.
  [[nodiscard]] bool spec_flag(Slot s) const {
    return (meta_[s] & kSpecBit) != 0;
  }

  /// Re-state a slot (revalidation, MOESI downgrades/upgrades). Clears the
  /// retained flag — a valid line holds its info in the line itself — and
  /// keeps the speculative summary. `st` must not be kInvalid: emptying a
  /// way goes through drop_slot() so the tag invariant holds.
  void set_state(Slot s, Moesi st) {
    assert(st != Moesi::kInvalid);
    meta_[s] = static_cast<std::uint8_t>(
        (meta_[s] & kSpecBit) | static_cast<std::uint8_t>(st));
  }

  /// Invalidate a slot while retaining its speculative info inside the line
  /// (paper §IV-B): state becomes kInvalid, the retained flag is set, the
  /// tag and speculative summary stay.
  void retain_invalid(Slot s) {
    meta_[s] = static_cast<std::uint8_t>((meta_[s] & kSpecBit) | kRetainedBit);
  }

  void set_spec_flag(Slot s, bool v) {
    meta_[s] = static_cast<std::uint8_t>(v ? (meta_[s] | kSpecBit)
                                           : (meta_[s] & ~kSpecBit));
  }

  /// Mark a slot most-recently-used.
  void touch_slot(Slot s) { lru_[s] = ++tick_; }

  /// Pick a victim way in `line`'s set. `pinned(victim_line)` marks ways that
  /// must not be evicted (lines holding speculative info). Preference order:
  /// empty way, then LRU among unpinned. Returns kNoSlot when every way is
  /// pinned, which the caller turns into an ASF capacity abort.
  template <typename PinnedFn>
  [[nodiscard]] Slot find_victim(Addr line, PinnedFn&& pinned) const {
    const std::uint32_t base = set_base(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == kEmptyTag) return base + w;
    }
    Slot best = kNoSlot;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const Slot s = base + w;
      if (pinned(tags_[s])) continue;
      if (best == kNoSlot || lru_[s] < lru_[best]) best = s;
    }
    return best;
  }

  /// find_victim specialized for the probe-based detectors' pin predicate:
  /// a way is pinned iff its speculative-summary flag is set (the flag
  /// mirrors metadata existence exactly — audited in both directions by
  /// MemorySystem::check_invariants). Reads one packed byte per way instead
  /// of calling back into a metadata hash lookup per occupied way.
  [[nodiscard]] Slot find_victim_unflagged(Addr line) const {
    const std::uint32_t base = set_base(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == kEmptyTag) return base + w;
    }
    Slot best = kNoSlot;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const Slot s = base + w;
      if ((meta_[s] & kSpecBit) != 0) continue;
      if (best == kNoSlot || lru_[s] < lru_[best]) best = s;
    }
    return best;
  }

  /// Install `line` into `victim` (obtained from find_victim) with `state`.
  void fill(Slot victim, Addr line, Moesi state);

  /// Empty a slot entirely (eviction / plain invalidation without
  /// retention).
  void drop_slot(Slot s) {
    tags_[s] = kEmptyTag;
    meta_[s] = 0;
    lru_[s] = 0;
  }

  [[nodiscard]] std::uint64_t fills() const { return fills_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  // meta_ byte layout: bits 0..2 MOESI state, bit 3 retained, bit 4 spec
  // summary.
  static constexpr std::uint8_t kStateMask = 0x07;
  static constexpr std::uint8_t kRetainedBit = 0x08;
  static constexpr std::uint8_t kSpecBit = 0x10;

  [[nodiscard]] std::uint32_t set_base(Addr line) const {
    return static_cast<std::uint32_t>((line >> kLineShift) & (sets_ - 1)) *
           ways_;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Addr> tags_;          // sets_ * ways_, set-major; kEmptyTag=free
  std::vector<std::uint8_t> meta_;  // packed state/retained/spec per way
  std::vector<std::uint64_t> lru_;  // larger = more recently used
  std::uint64_t tick_ = 0;
  std::uint64_t fills_ = 0;
  std::uint64_t evictions_ = 0;
};

class RecencyTags {
 public:
  /// Tag of an empty way. The tag is the line address above the set-index
  /// bits; guest addresses stay below kAddrLimit (2^40) and a
  /// level has at least kMinSets sets, so a real tag is below 2^31.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::uint32_t kMinSets = 8;

  explicit RecencyTags(const CacheLevelConfig& cfg);

  [[nodiscard]] std::uint32_t num_sets() const { return sets_; }
  [[nodiscard]] std::uint32_t ways() const { return ways_; }

  /// Access `line`. A hit moves it to the front of its set and returns
  /// true. A miss inserts it at the front, evicting the tail (the least
  /// recently used line) when the set is full, and returns false. One walk
  /// does both: each way visited takes its predecessor's tag, and the walk
  /// ends at the line itself or at the first empty way (empties sit at the
  /// tail).
  bool lookup_or_fill(Addr line) {
    std::uint32_t* set = tags_.data() + set_base(line);
    const std::uint32_t tag = tag_of(line);
    std::uint32_t carry = tag;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const std::uint32_t cur = set[w];
      set[w] = carry;
      if (cur == tag) return true;
      if (cur == kEmpty) {
        ++fills_;
        return false;
      }
      carry = cur;
    }
    ++fills_;
    ++evictions_;  // `carry`, the old tail, falls out
    return false;
  }

  /// Remove `line` (no-op if absent); the lines behind it move up a way.
  void drop(Addr line) {
    std::uint32_t* set = tags_.data() + set_base(line);
    const std::uint32_t tag = tag_of(line);
    std::uint32_t w = 0;
    while (w < ways_ && set[w] != tag && set[w] != kEmpty) ++w;
    if (w == ways_ || set[w] != tag) return;
    for (; w + 1 < ways_ && set[w + 1] != kEmpty; ++w) set[w] = set[w + 1];
    set[w] = kEmpty;
  }

  /// Whether `line` is present; changes no recency.
  [[nodiscard]] bool contains(Addr line) const {
    const std::uint32_t* set = tags_.data() + set_base(line);
    return std::find(set, set + ways_, tag_of(line)) != set + ways_;
  }

  [[nodiscard]] std::uint64_t fills() const { return fills_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  [[nodiscard]] std::size_t set_base(Addr line) const {
    return static_cast<std::size_t>((line >> kLineShift) & (sets_ - 1)) * ways_;
  }
  [[nodiscard]] std::uint32_t tag_of(Addr line) const {
    assert((line >> tag_shift_) < kEmpty && "line beyond the 32-bit tag");
    return static_cast<std::uint32_t>(line >> tag_shift_);
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t tag_shift_;          // kLineShift + log2(sets_)
  std::vector<std::uint32_t> tags_;  // sets_ * ways_, set-major, MRU first
  std::uint64_t fills_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace asfsim
