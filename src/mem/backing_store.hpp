// Simulated physical memory: a two-level page table of lazily allocated,
// zero-filled 4 KB pages.
//
// The backing store always holds *committed* data: non-transactional stores
// write it directly, transactional stores are buffered in the per-transaction
// write overlay (htm/asf_runtime) and applied here only at commit. This is
// what makes the sub-blocking piggy-back/dirty path naturally return pre-
// transaction values for speculatively-written sub-blocks (DESIGN.md §6.3).
//
// A directory indexed by `page_no >> kLeafBits` points to 512-entry leaves,
// so one leaf covers 2 MB of guest space, and each leaf entry points to a
// page. A lookup is two dependent loads with no hashing; writes stay below
// kAddrLimit (2^40, mem/addr.hpp), so the directory never exceeds 2^19
// entries, and it grows only on a write. `read` and `write` are inline
// and copy through load_bytes/store_bytes, so a guest access compiles to
// the two table loads plus a single load or store.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/addr.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// Load `size` (1..8) bytes at `src` as a little-endian value. Each of the
/// 1-, 2-, 4- and 8-byte cases is one fixed-size copy, which compiles to a
/// single load; other sizes take a generic copy.
[[nodiscard]] inline std::uint64_t load_bytes(const std::uint8_t* src,
                                              std::uint32_t size) {
  switch (size) {
    case 8: {
      std::uint64_t v;
      std::memcpy(&v, src, 8);
      return v;
    }
    case 4: {
      std::uint32_t v;
      std::memcpy(&v, src, 4);
      return v;
    }
    case 2: {
      std::uint16_t v;
      std::memcpy(&v, src, 2);
      return v;
    }
    case 1: return *src;
    default: {
      std::uint64_t v = 0;
      std::memcpy(&v, src, size);
      return v;
    }
  }
}

/// Store the low `size` (1..8) bytes of `v` at `dst`, little-endian; the
/// counterpart of load_bytes, one store per fixed-size case.
inline void store_bytes(std::uint8_t* dst, std::uint32_t size,
                        std::uint64_t v) {
  switch (size) {
    case 8: std::memcpy(dst, &v, 8); break;
    case 4: {
      const auto w = static_cast<std::uint32_t>(v);
      std::memcpy(dst, &w, 4);
      break;
    }
    case 2: {
      const auto w = static_cast<std::uint16_t>(v);
      std::memcpy(dst, &w, 2);
      break;
    }
    case 1: *dst = static_cast<std::uint8_t>(v); break;
    default: std::memcpy(dst, &v, size); break;
  }
}

class BackingStore {
 public:
  static constexpr std::uint32_t kPageBytes = 4096;
  static constexpr std::uint32_t kLeafBits = 9;  // 512 pages = 2 MB per leaf
  static constexpr std::uint32_t kLeafPages = 1u << kLeafBits;

  /// Read `size` (1..8) bytes at `a`, little-endian, zero-fill for untouched
  /// memory (which stays unallocated). The access must not cross a page
  /// boundary (callers are aligned).
  [[nodiscard]] std::uint64_t read(Addr a, std::uint32_t size) const {
    assert(size >= 1 && size <= 8);
    assert(a % kPageBytes + size <= kPageBytes);
    const Page* p = find_page(a);
    if (p == nullptr) return 0;
    return load_bytes(p->data() + a % kPageBytes, size);
  }

  /// Write the low `size` bytes of `v` at `a`; an address at or above
  /// kAddrLimit throws std::out_of_range.
  void write(Addr a, std::uint32_t size, std::uint64_t v) {
    assert(size >= 1 && size <= 8);
    assert(a % kPageBytes + size <= kPageBytes);
    store_bytes(page_for(a).data() + a % kPageBytes, size, v);
  }

  /// Write byte `b` of `data` to `line + b` for every bit `b` set in `mask`
  /// (a transaction's gang-commit of one overlay line): one page lookup,
  /// and an empty mask touches no page at all.
  void write_line(Addr line, ByteMask mask, const std::uint8_t* data);

  [[nodiscard]] std::size_t pages_touched() const { return pages_; }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;
  using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

  /// The page holding `a`, or null if none was ever written.
  [[nodiscard]] const Page* find_page(Addr a) const {
    const Addr no = a / kPageBytes;
    const Addr d = no >> kLeafBits;
    if (d >= dir_.size() || !dir_[d]) return nullptr;
    return (*dir_[d])[no % kLeafPages].get();
  }
  /// The page holding `a`, allocated zero-filled on first touch.
  Page& page_for(Addr a) {
    const Addr no = a / kPageBytes;
    const Addr d = no >> kLeafBits;
    if (d < dir_.size() && dir_[d]) {
      if (Page* p = (*dir_[d])[no % kLeafPages].get()) return *p;
    }
    return allocate_page(no);
  }
  Page& allocate_page(Addr page_no);

  std::vector<std::unique_ptr<Leaf>> dir_;
  std::size_t pages_ = 0;
};

}  // namespace asfsim
