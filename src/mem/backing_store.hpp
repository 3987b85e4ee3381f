// Sparse simulated physical memory.
//
// The backing store always holds *committed* data: non-transactional stores
// write it directly, transactional stores are buffered in the per-transaction
// write overlay (htm/asf_runtime) and applied here only at commit. This is
// what makes the sub-blocking piggy-back/dirty path naturally return pre-
// transaction values for speculatively-written sub-blocks (DESIGN.md §6.3).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "mem/addr.hpp"
#include "sim/addr_map.hpp"
#include "sim/types.hpp"

namespace asfsim {

class BackingStore {
 public:
  static constexpr std::uint32_t kPageBytes = 4096;

  /// Read `size` (1..8) bytes at `a`, little-endian, zero-fill for untouched
  /// memory. The access must not cross a page boundary (callers are aligned).
  [[nodiscard]] std::uint64_t read(Addr a, std::uint32_t size) const;

  /// Write the low `size` bytes of `v` at `a`.
  void write(Addr a, std::uint32_t size, std::uint64_t v);

  /// Write byte `b` of `data` to `line + b` for every bit `b` set in `mask`
  /// (a transaction's gang-commit of one overlay line): one page lookup,
  /// and an empty mask touches no page at all.
  void write_line(Addr line, ByteMask mask, const std::uint8_t* data);

  [[nodiscard]] std::size_t pages_touched() const { return pages_.size(); }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;
  const Page* find_page(Addr a) const;
  Page& page_for(Addr a);
  AddrMap<std::unique_ptr<Page>> pages_;
  // One-entry memo: guest access streams hit the same page repeatedly, so
  // remembering the last page short-circuits most map lookups. Pages are
  // never freed and live behind unique_ptr, so the cached pointer cannot
  // dangle.
  mutable Addr memo_page_no_ = ~Addr{0};
  mutable Page* memo_page_ = nullptr;
};

}  // namespace asfsim
