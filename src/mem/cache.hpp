// Per-core cache tag state. Data never lives here — functional data flows
// through the BackingStore plus per-transaction overlays — so both classes
// are purely timing/occupancy models, which is all the paper's results
// depend on.
//
// TagArray is the L1: a set-associative array with true-LRU replacement
// whose ways carry MOESI state, the retained flag (paper §IV-B) and the
// line's speculative state. Its layout is SoA (docs/performance.md): the
// set-probe loop walks a dense vector of line tags — one host cache line
// covers a whole set — and the per-way MOESI/retained byte, the speculative
// entry index and the Dirty sub-block mask live in separate vectors that
// only hit processing touches. The entry index names the way's record in
// its core's dense speculative-entry vector (MemorySystem), or is kNoEntry:
// it stands for the paper's per-line SPEC/WR bits, at 4 bytes per way, so
// the full SpecState record exists only for lines a transaction touched.
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
// `ways` 32-bit tags per set, most recently used first. It also lists the
// sets filled since the last clear() (up to 1/8 of them), so that an array
// reused for a new Machine is emptied in time proportional to its use.
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
  /// Index into the owning core's speculative-entry vector.
  using EntryIndex = std::uint32_t;
  static constexpr EntryIndex kNoEntry = ~EntryIndex{0};
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
  /// The way's speculative entry, or kNoEntry. A way with an entry is
  /// pinned against victim choice and is what incoming probes check.
  [[nodiscard]] EntryIndex entry(Slot s) const { return entry_[s]; }
  void set_entry(Slot s, EntryIndex e) { entry_[s] = e; }
  /// The way's Dirty sub-block marks (paper §IV-C). They live until the
  /// line is refetched or leaves the way: fill() and drop_slot() zero them.
  [[nodiscard]] SubBlockMask dirty(Slot s) const { return dirty_[s]; }
  void set_dirty(Slot s, SubBlockMask d) { dirty_[s] = d; }

  /// Re-state a slot (revalidation, MOESI downgrades/upgrades). Clears the
  /// retained flag — a valid line holds its info in the line itself — and
  /// keeps the speculative entry and Dirty marks. `st` must not be
  /// kInvalid: emptying a way goes through drop_slot() so the tag
  /// invariant holds.
  void set_state(Slot s, Moesi st) {
    assert(st != Moesi::kInvalid);
    meta_[s] = static_cast<std::uint8_t>(st);
  }

  /// Invalidate a slot while retaining its speculative info inside the line
  /// (paper §IV-B): state becomes kInvalid, the retained flag is set, the
  /// tag, speculative entry and Dirty marks stay.
  void retain_invalid(Slot s) { meta_[s] = kRetainedBit; }

  /// Mark a slot most-recently-used.
  void touch_slot(Slot s) { lru_[s] = ++tick_; }

  /// Pick a victim way in `line`'s set: an empty way, else the LRU way
  /// without a speculative entry. Returns kNoSlot when every way holds
  /// one, which the caller turns into an ASF capacity abort.
  [[nodiscard]] Slot find_victim(Addr line) const {
    const std::uint32_t base = set_base(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == kEmptyTag) return base + w;
    }
    Slot best = kNoSlot;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const Slot s = base + w;
      if (entry_[s] != kNoEntry) continue;
      if (best == kNoSlot || lru_[s] < lru_[best]) best = s;
    }
    return best;
  }

  /// Install `line` into `victim` (obtained from find_victim) with `state`.
  /// The way starts with no speculative entry and no Dirty marks.
  void fill(Slot victim, Addr line, Moesi state);

  /// Empty a slot entirely (eviction / plain invalidation without
  /// retention). The owner of the way's speculative entry, if any, must
  /// read entry() first.
  void drop_slot(Slot s) {
    tags_[s] = kEmptyTag;
    meta_[s] = 0;
    lru_[s] = 0;
    entry_[s] = kNoEntry;
    dirty_[s] = 0;
  }

  [[nodiscard]] std::uint64_t fills() const { return fills_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Return to the state the constructor left: every way empty, no
  /// entries or Dirty marks, counters zero. Reuses the host memory.
  void clear() { reset(tags_.size()); }

 private:
  // meta_ byte layout: bits 0..2 MOESI state, bit 3 retained.
  static constexpr std::uint8_t kStateMask = 0x07;
  static constexpr std::uint8_t kRetainedBit = 0x08;

  [[nodiscard]] std::uint32_t set_base(Addr line) const {
    return static_cast<std::uint32_t>((line >> kLineShift) & (sets_ - 1)) *
           ways_;
  }
  void reset(std::size_t slots);

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Addr> tags_;          // sets_ * ways_, set-major; kEmptyTag=free
  std::vector<std::uint8_t> meta_;  // packed state/retained per way
  std::vector<std::uint64_t> lru_;  // larger = more recently used
  std::vector<EntryIndex> entry_;   // speculative entry; kNoEntry = none
  std::vector<SubBlockMask> dirty_;  // Dirty sub-block marks
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
        if (w == 0) note_filled_set(line);
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

  /// Empty every set and zero the counters, as constructed. Its cost is
  /// proportional to the sets filled since the last clear.
  void clear();

 private:
  [[nodiscard]] std::size_t set_base(Addr line) const {
    return static_cast<std::size_t>((line >> kLineShift) & (sets_ - 1)) * ways_;
  }
  [[nodiscard]] std::uint32_t tag_of(Addr line) const {
    assert((line >> tag_shift_) < kEmpty && "line beyond the 32-bit tag");
    return static_cast<std::uint32_t>(line >> tag_shift_);
  }
  /// Remember that `line`'s set left the all-empty state, for clear(). Past
  /// the list's capacity, clear() empties every set instead.
  void note_filled_set(Addr line) {
    if (filled_sets_.size() < filled_sets_.capacity()) {
      filled_sets_.push_back(set_base(line));
    }
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t tag_shift_;          // kLineShift + log2(sets_)
  std::vector<std::uint32_t> tags_;  // sets_ * ways_, set-major, MRU first
  // Set bases filled since the last clear; a full list means "maybe all".
  std::vector<std::size_t> filled_sets_;
  std::uint64_t fills_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace asfsim
