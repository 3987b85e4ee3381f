// Open-addressed hash map keyed by Addr for the kernel hot path.
//
// The per-access metadata maps (backing-store pages, speculative line
// metadata, dirty marks, tx write overlays) are all keyed by address and sit
// on the hottest loop in the simulator. libstdc++'s unordered_map pays a
// 64-bit prime modulo on every operation plus a pointer chase per node;
// AddrMap replaces that with Fibonacci hashing into a power-of-two flat
// slot array and linear probing — one multiply, one shift, and a contiguous
// scan that the prefetcher already has in cache (docs/performance.md).
//
// Semantics mirror the unordered_map subset the simulator uses: find /
// operator[] / erase / size / empty / clear / == and range-for with
// structured bindings ([key, value] via the public `first`/`second`
// members). Two deliberate differences:
//   - references and iterators are invalidated by ANY insert or erase
//     (open addressing moves entries; unordered_map only invalidated
//     iterators on rehash). Callers must not hold references across
//     mutations — the simulator never did.
//   - iteration order is slot order: deterministic for a given sequence of
//     operations (bit-reproducible runs), but different from unordered_map
//     enumeration order. Every iteration site in the tree is
//     order-insensitive or sorts explicitly, and the kernel-identity
//     goldens pin that this swap changed no simulated outcome.
//
// The all-ones address is reserved as the empty-slot sentinel. Nothing in
// the simulator can produce it as a key: line addresses and page numbers
// are aligned/shifted physical addresses, and ~0 is used tree-wide as the
// "no address" marker already. The stats-blob parser rejects it as input.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace asfsim {

/// One AddrMap slot. Exposes the unordered_map-style `first`/`second` pair;
/// structured bindings see exactly those two via the tuple protocol below,
/// keeping the bookkeeping `gen` stamp out of `[key, value]` loops.
template <typename V>
struct AddrMapEntry {
  Addr first = ~Addr{0};  // AddrMap::kEmpty
  V second{};
  // Generation stamp: the entry is live iff first != kEmpty and gen matches
  // the map's current generation. clear() just bumps the map generation —
  // O(1) — and every probe/iteration treats stale entries exactly like
  // empty slots (they terminate probe chains, and inserts reuse them). The
  // transaction hot path clears the speculative-metadata and overlay maps
  // on every attempt, so this matters.
  std::uint64_t gen = 0;
};

template <std::size_t I, typename V>
[[nodiscard]] auto& get(AddrMapEntry<V>& e) {
  if constexpr (I == 0) return e.first;
  else return e.second;
}
template <std::size_t I, typename V>
[[nodiscard]] const auto& get(const AddrMapEntry<V>& e) {
  if constexpr (I == 0) return e.first;
  else return e.second;
}

template <typename V>
class AddrMap {
  static constexpr Addr kEmpty = ~Addr{0};

 public:
  using Entry = AddrMapEntry<V>;

  template <bool Const>
  class Iter {
    using Ptr = std::conditional_t<Const, const Entry*, Entry*>;

   public:
    Iter(Ptr p, Ptr end, std::uint64_t gen) : p_(p), end_(end), gen_(gen) {
      skip();
    }
    [[nodiscard]] auto& operator*() const { return *p_; }
    [[nodiscard]] auto operator->() const { return p_; }
    Iter& operator++() {
      ++p_;
      skip();
      return *this;
    }
    [[nodiscard]] friend bool operator==(const Iter& a, const Iter& b) {
      return a.p_ == b.p_;
    }
    [[nodiscard]] friend bool operator!=(const Iter& a, const Iter& b) {
      return a.p_ != b.p_;
    }

   private:
    void skip() {
      while (p_ != end_ && (p_->first == kEmpty || p_->gen != gen_)) ++p_;
    }
    Ptr p_;
    Ptr end_;
    std::uint64_t gen_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  AddrMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator begin() {
    return {slots_.data(), slots_.data() + slots_.size(), gen_};
  }
  [[nodiscard]] iterator end() {
    Entry* e = slots_.data() + slots_.size();
    return {e, e, gen_};
  }
  [[nodiscard]] const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size(), gen_};
  }
  [[nodiscard]] const_iterator end() const {
    const Entry* e = slots_.data() + slots_.size();
    return {e, e, gen_};
  }

  /// Equal iff both hold the same key/value pairs; slot order is ignored.
  [[nodiscard]] friend bool operator==(const AddrMap& a, const AddrMap& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [k, v] : a) {
      const auto it = b.find(k);
      if (it == b.end() || !(it->second == v)) return false;
    }
    return true;
  }

  [[nodiscard]] iterator find(Addr k) {
    const std::size_t i = locate(k);
    return i == kNotFound
               ? end()
               : iterator{&slots_[i], slots_.data() + slots_.size(), gen_};
  }
  [[nodiscard]] const_iterator find(Addr k) const {
    const std::size_t i = locate(k);
    return i == kNotFound
               ? end()
               : const_iterator{&slots_[i], slots_.data() + slots_.size(),
                                gen_};
  }

  V& operator[](Addr k) {
    assert(k != kEmpty && "all-ones address is the empty-slot sentinel");
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(k);
    const std::size_t mask = slots_.size() - 1;
    while (live(slots_[i]) && slots_[i].first != k) {
      i = (i + 1) & mask;
    }
    Entry& e = slots_[i];
    if (!live(e) || e.first != k) {
      // Fresh slot or a stale entry from before a clear(): (re)initialize.
      e.first = k;
      e.second = V{};
      e.gen = gen_;
      ++size_;
    }
    return e.second;
  }

  std::size_t erase(Addr k) {
    const std::size_t i = locate(k);
    if (i == kNotFound) return 0;
    remove_slot(i);
    return 1;
  }

  void clear() {
    if constexpr (std::is_trivially_destructible_v<V>) {
      // O(1): stale entries become indistinguishable from empty slots.
      if (size_ != 0) ++gen_;
      size_ = 0;
    } else {
      // Non-trivial V must release resources eagerly.
      for (Entry& e : slots_) e = Entry{};
      size_ = 0;
      gen_ = 0;
    }
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  /// Live = occupied in the CURRENT generation. A stale entry (survivor of
  /// an O(1) clear) behaves exactly like an empty slot: it terminates probe
  /// chains and is reused by inserts, so live chains can never span one.
  [[nodiscard]] bool live(const Entry& e) const {
    return e.first != kEmpty && e.gen == gen_;
  }

  [[nodiscard]] std::size_t home(Addr k) const {
    // Fibonacci hashing: spreads aligned keys (line addresses are multiples
    // of 64) over the whole table with a single multiply.
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  [[nodiscard]] std::size_t locate(Addr k) const {
    if (size_ == 0) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(k);
    while (live(slots_[i])) {
      if (slots_[i].first == k) return i;
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    const std::uint64_t old_gen = gen_;
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.clear();
    slots_.resize(cap);  // not assign(): V may be move-only (unique_ptr)
    gen_ = 0;            // rehash drops stale entries; fresh table, fresh gen
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    const std::size_t mask = cap - 1;
    for (Entry& e : old) {
      if (e.first == kEmpty || e.gen != old_gen) continue;
      std::size_t i = home(e.first);
      while (slots_[i].first != kEmpty) i = (i + 1) & mask;
      slots_[i] = std::move(e);
      slots_[i].gen = 0;
    }
  }

  // Knuth's linear-probe deletion (backward shift): pull later entries of
  // the same probe chain into the hole so lookups never need tombstones.
  // Stale entries terminate the shift scan like empty slots do.
  void remove_slot(std::size_t i) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (!live(slots_[j])) break;
      const std::size_t h = home(slots_[j].first);
      // Entry at j stays iff its home lies cyclically in (i, j].
      const bool stays = (i <= j) ? (i < h && h <= j) : (h > i || h <= j);
      if (!stays) {
        slots_[i] = std::move(slots_[j]);
        slots_[i].gen = gen_;
        i = j;
      }
    }
    slots_[i] = Entry{};
    --size_;
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
  std::uint64_t gen_ = 0;  // bumped by O(1) clear(); never wraps in practice
  unsigned shift_ = 64;  // 64 - log2(capacity); recomputed on grow
};

}  // namespace asfsim

// Tuple protocol: structured bindings decompose an entry as [key, value],
// matching the unordered_map idiom the call sites were written against.
template <typename V>
struct std::tuple_size<asfsim::AddrMapEntry<V>>
    : std::integral_constant<std::size_t, 2> {};
template <typename V>
struct std::tuple_element<0, asfsim::AddrMapEntry<V>> {
  using type = asfsim::Addr;
};
template <typename V>
struct std::tuple_element<1, asfsim::AddrMapEntry<V>> {
  using type = V;
};
