// Guest heap allocator over the simulated physical address space.
//
// Deliberately malloc-like: objects are packed with small (8-byte by
// default) alignment and NO cache-line padding, because unpadded allocation
// is precisely what produces the false sharing the paper studies. Workloads
// that want padded allocations (for controlled experiments) can ask for
// line alignment explicitly.
//
// Conflict provenance (docs/observability.md): when a prov::SiteRegistry is
// armed, allocations can carry a site id and the allocator records each
// tagged range as an extent, so a conflict address can later be resolved
// back to (site, object index). With no registry armed every site-tagged
// path degenerates to the untagged one behind a single null check.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "mem/addr.hpp"
#include "prov/site_registry.hpp"
#include "sim/types.hpp"

namespace asfsim {

class GAllocator {
 public:
  /// Guest heap starts away from address 0 so null-ish guest pointers trap.
  explicit GAllocator(Addr base = 0x10000, Addr limit = kAddrLimit)
      : next_(base), limit_(limit) {}

  /// Arm conflict provenance: subsequent site-tagged allocations record
  /// extents into `sites` (owned by Machine; null disarms).
  void set_site_registry(prov::SiteRegistry* sites) { sites_ = sites; }

  /// Declare an allocation site (idempotent per name). Returns
  /// prov::kUntaggedSite when provenance is off, so callers can tag
  /// unconditionally at zero bookkeeping cost.
  prov::SiteId register_site(std::string_view name, std::uint64_t obj_size) {
    return sites_ != nullptr ? sites_->register_site(name, obj_size)
                             : prov::kUntaggedSite;
  }

  /// Per-core pool allocation (the STAMP per-thread allocator): cores draw
  /// from private 4KB arenas, so nodes allocated by *different* cores never
  /// share a cache line, while nodes from one core stay malloc-packed.
  Addr alloc_local(CoreId core, std::uint64_t size, std::uint64_t align = 8,
                   prov::SiteId site = prov::kUntaggedSite) {
    if (core >= arenas_.size()) arenas_.resize(core + 1);
    Arena& a = arenas_[core];
    Addr p = (a.next + align - 1) & ~(align - 1);
    if (p + size > a.end) {
      const std::uint64_t chunk = size > kArenaBytes ? size : kArenaBytes;
      // Arena refills stay untagged: the carved object below is the extent,
      // tagging the whole chunk too would double-cover its addresses.
      a.next = alloc(chunk, kLineBytes);
      a.end = a.next + chunk;
      p = (a.next + align - 1) & ~(align - 1);
    }
    a.next = p + size;
    if (sites_ != nullptr && site != prov::kUntaggedSite) {
      sites_->on_alloc(p, size, site);
    }
    return p;
  }

  /// Allocate `size` bytes with the given alignment (power of two).
  Addr alloc(std::uint64_t size, std::uint64_t align = 8,
             prov::SiteId site = prov::kUntaggedSite) {
    if (size == 0) size = 1;
    if (align == 0 || (align & (align - 1)) != 0) {
      throw std::invalid_argument("GAllocator: alignment must be a power of 2");
    }
    next_ = (next_ + align - 1) & ~(align - 1);
    const Addr a = next_;
    next_ += size;
    if (next_ > limit_) throw std::runtime_error("GAllocator: out of memory");
    ++allocs_;
    if (sites_ != nullptr && site != prov::kUntaggedSite) {
      sites_->on_alloc(a, size, site);
    }
    return a;
  }

  /// Allocate whole cache lines (line-aligned).
  Addr alloc_lines(std::uint64_t nlines,
                   prov::SiteId site = prov::kUntaggedSite) {
    return alloc(nlines * kLineBytes, kLineBytes, site);
  }

  [[nodiscard]] Addr brk() const { return next_; }
  [[nodiscard]] std::uint64_t allocations() const { return allocs_; }
  [[nodiscard]] const prov::SiteRegistry* site_registry() const {
    return sites_;
  }

 private:
  static constexpr std::uint64_t kArenaBytes = 4096;
  struct Arena {
    Addr next = 0;
    Addr end = 0;
  };
  Addr next_;
  Addr limit_;
  std::uint64_t allocs_ = 0;
  std::vector<Arena> arenas_;
  prov::SiteRegistry* sites_ = nullptr;
};

}  // namespace asfsim
