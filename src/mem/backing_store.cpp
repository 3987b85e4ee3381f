#include "mem/backing_store.hpp"

#include <bit>
#include <stdexcept>

namespace asfsim {

BackingStore::Page& BackingStore::allocate_page(Addr page_no) {
  if (page_no >= kAddrLimit / kPageBytes) {
    throw std::out_of_range("BackingStore: write above the guest address limit");
  }
  const Addr d = page_no >> kLeafBits;
  if (d >= dir_.size()) dir_.resize(d + 1);
  if (!dir_[d]) dir_[d] = std::make_unique<Leaf>();
  auto& slot = (*dir_[d])[page_no % kLeafPages];
  assert(!slot);
  slot = std::make_unique<Page>();  // value-initialized: zero-filled
  ++pages_;
  return *slot;
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
