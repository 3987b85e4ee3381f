#include "mem/cache.hpp"

#include <bit>
#include <cstddef>
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
    : sets_(cfg.num_sets()), ways_(cfg.ways) {
  check_geometry("TagArray", cfg, 1);
  reset(static_cast<std::size_t>(sets_) * ways_);
}

void TagArray::reset(std::size_t slots) {
  tags_.assign(slots, kEmptyTag);
  meta_.assign(slots, 0);
  lru_.assign(slots, 0);
  entry_.assign(slots, kNoEntry);
  dirty_.assign(slots, 0);
  tick_ = 0;
  fills_ = 0;
  evictions_ = 0;
}

RecencyTags::RecencyTags(const CacheLevelConfig& cfg)
    : sets_(cfg.num_sets()),
      ways_(cfg.ways),
      tag_shift_(kLineShift +
                 static_cast<std::uint32_t>(std::countr_zero(sets_))),
      tags_(static_cast<std::size_t>(sets_) * ways_, kEmpty) {
  check_geometry("RecencyTags", cfg, kMinSets);
  filled_sets_.reserve(sets_ / 8);
}

void RecencyTags::clear() {
  if (filled_sets_.size() == filled_sets_.capacity()) {
    std::fill(tags_.begin(), tags_.end(), kEmpty);
  } else {
    for (const std::size_t base : filled_sets_) {
      std::fill_n(tags_.begin() + static_cast<std::ptrdiff_t>(base), ways_,
                  kEmpty);
    }
  }
  filled_sets_.clear();
  fills_ = 0;
  evictions_ = 0;
}

void TagArray::fill(Slot victim, Addr line, Moesi state) {
  assert(victim != kNoSlot);
  assert(state != Moesi::kInvalid);
  assert(entry_[victim] == kNoEntry && "a speculative way is never a victim");
  if (tags_[victim] != kEmptyTag) ++evictions_;
  tags_[victim] = line;
  meta_[victim] = static_cast<std::uint8_t>(state);  // retained cleared
  lru_[victim] = ++tick_;
  dirty_[victim] = 0;
  ++fills_;
}

}  // namespace asfsim
