// Address math: cache-line and sub-block decomposition, byte masks.
//
// The whole library fixes the cache-line size at 64 bytes (the paper's
// configuration, Table II). A 64-bit mask then describes any set of bytes
// within one line, which makes conflict-overlap checks single AND
// instructions. Sub-block masks (up to 16 sub-blocks per line) quantize byte
// masks to the sub-block granularity used by the speculative sub-blocking
// detector.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "sim/types.hpp"

namespace asfsim {

inline constexpr std::uint32_t kLineBytes = 64;
inline constexpr std::uint32_t kLineShift = 6;
inline constexpr std::uint32_t kMaxSubBlocks = 16;
/// Guest addresses stay below 2^40: the GAllocator heap ends there, the
/// BackingStore page table holds nothing above it, and the 32-bit L2/L3
/// tags (RecencyTags) assume it.
inline constexpr Addr kAddrLimit = Addr{1} << 40;

/// Mask of bytes within one line; bit i = byte i.
using ByteMask = std::uint64_t;
/// Mask of sub-blocks within one line; bit i = sub-block i (<= 16 bits used).
using SubBlockMask = std::uint16_t;

[[nodiscard]] constexpr Addr line_of(Addr a) { return a & ~Addr{kLineBytes - 1}; }
[[nodiscard]] constexpr std::uint32_t line_offset(Addr a) {
  return static_cast<std::uint32_t>(a & (kLineBytes - 1));
}

/// Byte mask for an access of `size` bytes at byte offset `off` in a line.
/// The access must not cross the line boundary.
[[nodiscard]] constexpr ByteMask byte_mask(std::uint32_t off, std::uint32_t size) {
  assert(size >= 1 && off + size <= kLineBytes);
  return (size >= 64 ? ~ByteMask{0} : ((ByteMask{1} << size) - 1)) << off;
}

[[nodiscard]] constexpr ByteMask byte_mask_of(Addr a, std::uint32_t size) {
  return byte_mask(line_offset(a), size);
}

/// Widen the low 8 bits of `bits` to a 64-bit value lane mask: byte i is
/// 0xff iff bit i is set. Three spread steps (nibbles, pairs, bits) put bit
/// i on bit 8i; the final multiply cannot carry across bytes.
[[nodiscard]] constexpr std::uint64_t byte_lanes(std::uint32_t bits) {
  std::uint64_t x = bits & 0xffu;
  x = (x | (x << 28)) & 0x0000000F0000000FULL;
  x = (x | (x << 14)) & 0x0003000300030003ULL;
  x = (x | (x << 7)) & 0x0101010101010101ULL;
  return x * 0xff;
}

namespace detail {

/// Interleave table for 16-sub-block quantization: bit j of the input lands
/// on bit 2j of the output, leaving the odd bits for the other operand.
inline constexpr auto kBitSpread = [] {
  std::array<std::uint16_t, 256> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint16_t v = 0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      if (b & (1u << j)) v = static_cast<std::uint16_t>(v | (1u << (2 * j)));
    }
    t[b] = v;
  }
  return t;
}();

/// Gather bit 0 of each of the eight bytes of `m` into one byte (classic
/// 0x0102... lattice multiply; collision-free on the 0x0101 mask).
[[nodiscard]] constexpr std::uint32_t gather_byte_lsbs(ByteMask m) {
  return static_cast<std::uint32_t>(
      ((m & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56);
}

/// OR-fold each 8-byte group of `m` into its group LSB, then gather. The
/// folding shifts (4, 2, 1) are smaller than the group width, so bit 0 of
/// each byte receives only bits of its own byte.
[[nodiscard]] constexpr std::uint32_t or_fold_bytes(ByteMask m) {
  m |= m >> 4;
  m |= m >> 2;
  m |= m >> 1;
  return gather_byte_lsbs(m);
}

}  // namespace detail

/// Quantize a byte mask to `nsub` sub-blocks (nsub in {1,2,4,8,16}).
/// A sub-block bit is set iff any byte of that sub-block is set.
///
/// Branchless per sub-block (docs/performance.md): each case ORs whole
/// groups down to one bit and gathers with a multiply instead of looping
/// nsub times — this runs on every transactional access (up to three
/// quantizations per access) and in every probe check. tests/test_addr.cpp
/// proves equivalence with the looped reference for every nsub.
[[nodiscard]] constexpr SubBlockMask quantize(ByteMask bytes, std::uint32_t nsub) {
  assert(nsub >= 1 && nsub <= kMaxSubBlocks && (nsub & (nsub - 1)) == 0);
  switch (nsub) {
    case 1:
      return bytes != 0 ? 1 : 0;
    case 2:
      return static_cast<SubBlockMask>(
          ((bytes & 0xffffffffULL) != 0 ? 1 : 0) |
          ((bytes >> 32) != 0 ? 2 : 0));
    case 4:
      return static_cast<SubBlockMask>(
          ((bytes & 0xffffULL) != 0 ? 1 : 0) |
          (((bytes >> 16) & 0xffffULL) != 0 ? 2 : 0) |
          (((bytes >> 32) & 0xffffULL) != 0 ? 4 : 0) |
          ((bytes >> 48) != 0 ? 8 : 0));
    case 8:
      return static_cast<SubBlockMask>(detail::or_fold_bytes(bytes));
    default: {  // 16: 4-byte groups = nibble LSBs; gather even/odd separately
      ByteMask m = bytes;
      m |= m >> 2;
      m |= m >> 1;
      // Bit 0 of each nibble now says "this 4-byte group is touched". Even
      // nibbles (sub-blocks 0,2,..,14) sit at byte LSBs and gather directly;
      // odd nibbles after a 4-bit shift. A single gather constant for all 16
      // nibbles has multiply collisions, hence the split + interleave.
      const std::uint32_t even = detail::gather_byte_lsbs(m);
      const std::uint32_t odd = detail::gather_byte_lsbs(m >> 4);
      return static_cast<SubBlockMask>(detail::kBitSpread[even] |
                                       (detail::kBitSpread[odd] << 1));
    }
  }
}

/// Expand a sub-block mask back to the byte mask it covers.
[[nodiscard]] constexpr ByteMask expand(SubBlockMask subs, std::uint32_t nsub) {
  const std::uint32_t sub_bytes = kLineBytes / nsub;
  ByteMask out = 0;
  for (std::uint32_t i = 0; i < nsub; ++i) {
    if (subs & (1u << i)) out |= byte_mask(i * sub_bytes, sub_bytes);
  }
  return out;
}

/// Index of the sub-block containing byte offset `off`.
[[nodiscard]] constexpr std::uint32_t subblock_index(std::uint32_t off,
                                                     std::uint32_t nsub) {
  return off / (kLineBytes / nsub);
}

}  // namespace asfsim
