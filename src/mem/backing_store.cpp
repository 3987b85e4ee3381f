#include "mem/backing_store.hpp"

#include <bit>
#include <cassert>
#include <cstring>

namespace asfsim {

const BackingStore::Page* BackingStore::find_page(Addr a) const {
  const Addr no = a / kPageBytes;
  if (no == memo_page_no_) return memo_page_;
  const auto it = pages_.find(no);
  if (it == pages_.end()) return nullptr;  // absence is never memoized
  memo_page_no_ = no;
  memo_page_ = it->second.get();
  return memo_page_;
}

BackingStore::Page& BackingStore::page_for(Addr a) {
  const Addr no = a / kPageBytes;
  if (no == memo_page_no_) return *memo_page_;
  auto& slot = pages_[no];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  memo_page_no_ = no;
  memo_page_ = slot.get();
  return *slot;
}

std::uint64_t BackingStore::read(Addr a, std::uint32_t size) const {
  assert(size >= 1 && size <= 8);
  assert(a % kPageBytes + size <= kPageBytes);
  const Page* p = find_page(a);
  if (!p) return 0;
  std::uint64_t v = 0;
  std::memcpy(&v, p->data() + a % kPageBytes, size);
  return v;
}

void BackingStore::write(Addr a, std::uint32_t size, std::uint64_t v) {
  assert(size >= 1 && size <= 8);
  assert(a % kPageBytes + size <= kPageBytes);
  std::memcpy(page_for(a).data() + a % kPageBytes, &v, size);
}

void BackingStore::write_line(Addr line, ByteMask mask,
                              const std::uint8_t* data) {
  assert(line % kLineBytes == 0);
  if (mask == 0) return;
  std::uint8_t* dst = page_for(line).data() + line % kPageBytes;
  // One memcpy per run of consecutive set bits.
  while (mask != 0) {
    const int first = std::countr_zero(mask);
    const int len = std::countr_one(mask >> first);
    std::memcpy(dst + first, data + first, static_cast<std::size_t>(len));
    if (first + len == static_cast<int>(kLineBytes)) break;
    mask &= ~ByteMask{0} << (first + len);
  }
}

}  // namespace asfsim
