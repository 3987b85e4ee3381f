#include "mem/cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace asfsim {

namespace {

/// The geometry SimConfig::validate() admits; a level built directly (tests,
/// microbenchmarks) gets the same rule.
void check_geometry(const char* who, const CacheLevelConfig& cfg,
                    std::uint32_t min_sets) {
  const std::uint32_t sets = cfg.num_sets();
  if (cfg.line_bytes != kLineBytes) {
    throw std::invalid_argument(std::string(who) +
                                ": line size must be 64 bytes");
  }
  if (!std::has_single_bit(sets) || sets < min_sets) {
    throw std::invalid_argument(
        std::string(who) + ": number of sets must be a power of 2 and >= " +
        std::to_string(min_sets));
  }
}

}  // namespace

const char* to_string(Moesi s) {
  switch (s) {
    case Moesi::kInvalid: return "I";
    case Moesi::kShared: return "S";
    case Moesi::kExclusive: return "E";
    case Moesi::kOwned: return "O";
    case Moesi::kModified: return "M";
  }
  return "?";
}

TagArray::TagArray(const CacheLevelConfig& cfg)
    : sets_(cfg.num_sets()),
      ways_(cfg.ways),
      tags_(static_cast<std::size_t>(sets_) * ways_, kEmptyTag),
      meta_(tags_.size(), 0),
      lru_(tags_.size(), 0) {
  check_geometry("TagArray", cfg, 1);
}

RecencyTags::RecencyTags(const CacheLevelConfig& cfg)
    : sets_(cfg.num_sets()),
      ways_(cfg.ways),
      tag_shift_(kLineShift +
                 static_cast<std::uint32_t>(std::countr_zero(sets_))),
      tags_(static_cast<std::size_t>(sets_) * ways_, kEmpty) {
  check_geometry("RecencyTags", cfg, kMinSets);
}

void TagArray::fill(Slot victim, Addr line, Moesi state) {
  assert(victim != kNoSlot);
  assert(state != Moesi::kInvalid);
  if (tags_[victim] != kEmptyTag) ++evictions_;
  tags_[victim] = line;
  meta_[victim] = static_cast<std::uint8_t>(state);  // retained/spec cleared
  lru_[victim] = ++tick_;
  ++fills_;
}

}  // namespace asfsim
