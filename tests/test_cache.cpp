// Unit tests: TagArray geometry, LRU replacement, pinning, retention, and
// the SoA slot API (sentinel tags, packed meta, speculative-summary flag);
// RecencyTags, and a randomized check that it replaces exactly like a
// TagArray driven the way the L2/L3 miss path used to drive one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "sim/random.hpp"

namespace asfsim {
namespace {

constexpr auto kNoSlot = TagArray::kNoSlot;

CacheLevelConfig small_l1() {
  CacheLevelConfig c;
  c.size_bytes = 4 * 64 * 2;  // 4 sets, 2 ways
  c.line_bytes = 64;
  c.ways = 2;
  c.latency = 3;
  return c;
}

Addr line_in_set(std::uint32_t set, std::uint32_t k, std::uint32_t nsets = 4) {
  return (Addr{k} * nsets + set) << kLineShift;
}

constexpr auto kAnyVictim = [](Addr) { return false; };

TEST(TagArray, RejectsNon64ByteLines) {
  CacheLevelConfig c = small_l1();
  c.line_bytes = 32;
  EXPECT_THROW(TagArray{c}, std::invalid_argument);
}

TEST(TagArray, GeometryFromConfig) {
  TagArray t(small_l1());
  EXPECT_EQ(t.num_sets(), 4u);
  EXPECT_EQ(t.ways(), 2u);
  EXPECT_EQ(t.num_slots(), 8u);
  SimConfig def;
  TagArray l1(def.l1);
  EXPECT_EQ(l1.num_sets(), 512u);  // 64KB / 64B / 2 ways (paper Table II)
}

TEST(TagArray, FindMissesOnEmptyAndHitsAfterFill) {
  TagArray t(small_l1());
  const Addr a = line_in_set(1, 0);
  EXPECT_EQ(t.find(a), kNoSlot);
  const auto v = t.find_victim(a, kAnyVictim);
  ASSERT_NE(v, kNoSlot);
  t.fill(v, a, Moesi::kExclusive);
  const auto s = t.find(a);
  ASSERT_NE(s, kNoSlot);
  EXPECT_EQ(t.state(s), Moesi::kExclusive);
  EXPECT_EQ(t.line(s), a);
}

TEST(TagArray, LruEvictsLeastRecentlyTouched) {
  TagArray t(small_l1());
  const Addr a = line_in_set(2, 0), b = line_in_set(2, 1), c = line_in_set(2, 2);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kShared);
  t.fill(t.find_victim(b, kAnyVictim), b, Moesi::kShared);
  t.touch_slot(t.find(a));  // b is now LRU
  t.fill(t.find_victim(c, kAnyVictim), c, Moesi::kShared);
  EXPECT_NE(t.find(a), kNoSlot);
  EXPECT_EQ(t.find(b), kNoSlot) << "LRU way must have been evicted";
  EXPECT_NE(t.find(c), kNoSlot);
}

TEST(TagArray, VictimPrefersEmptyWay) {
  TagArray t(small_l1());
  const Addr a = line_in_set(0, 0), b = line_in_set(0, 1);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kModified);
  const auto v = t.find_victim(b, kAnyVictim);
  ASSERT_NE(v, kNoSlot);
  EXPECT_EQ(t.line(v), TagArray::kEmptyTag) << "must pick the empty way";
  EXPECT_NE(t.find(a), kNoSlot);
}

TEST(TagArray, PinnedLinesAreNotEvicted) {
  TagArray t(small_l1());
  const Addr a = line_in_set(3, 0), b = line_in_set(3, 1), c = line_in_set(3, 2);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kModified);
  t.fill(t.find_victim(b, kAnyVictim), b, Moesi::kShared);
  auto pin_a = [&](Addr line) { return line == a; };
  const auto v = t.find_victim(c, pin_a);
  ASSERT_NE(v, kNoSlot);
  EXPECT_EQ(t.line(v), b) << "pinned line a must be skipped";
}

TEST(TagArray, AllWaysPinnedReturnsNoSlot) {
  TagArray t(small_l1());
  const Addr a = line_in_set(1, 0), b = line_in_set(1, 1), c = line_in_set(1, 2);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kModified);
  t.fill(t.find_victim(b, kAnyVictim), b, Moesi::kModified);
  EXPECT_EQ(t.find_victim(c, [](Addr) { return true; }), kNoSlot)
      << "capacity abort signal when every way holds speculative state";
}

TEST(TagArray, RetainedEntriesStayFindable) {
  TagArray t(small_l1());
  const Addr a = line_in_set(0, 0);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kShared);
  const auto s = t.find(a);
  t.retain_invalid(s);  // invalidated with speculative-info retention
  ASSERT_NE(t.find(a), kNoSlot);
  EXPECT_TRUE(t.retained(s));
  EXPECT_FALSE(t.valid(s));
  EXPECT_EQ(t.state(s), Moesi::kInvalid);
  t.drop_slot(t.find(a));
  EXPECT_EQ(t.find(a), kNoSlot);
}

TEST(TagArray, RevalidationClearsRetained) {
  TagArray t(small_l1());
  const Addr a = line_in_set(0, 0);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kShared);
  const auto s = t.find(a);
  t.retain_invalid(s);
  t.set_state(s, Moesi::kExclusive);  // owner refetches the line
  EXPECT_TRUE(t.valid(s));
  EXPECT_FALSE(t.retained(s));
}

TEST(TagArray, SpecFlagSurvivesRetentionAndDiesWithDrop) {
  TagArray t(small_l1());
  const Addr a = line_in_set(2, 0);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kModified);
  auto s = t.find(a);
  EXPECT_FALSE(t.spec_flag(s)) << "fresh fill carries no speculative summary";
  t.set_spec_flag(s, true);
  t.retain_invalid(s);
  EXPECT_TRUE(t.spec_flag(s)) << "retention keeps the line's speculative info";
  t.set_state(s, Moesi::kModified);
  EXPECT_TRUE(t.spec_flag(s)) << "revalidation keeps live metadata visible";
  t.drop_slot(s);
  s = t.find_victim(a, kAnyVictim);
  t.fill(s, a, Moesi::kShared);
  EXPECT_FALSE(t.spec_flag(t.find(a))) << "drop+refill must reset the flag";
}

TEST(TagArray, SlotsAreStableAcrossDropsOfOtherLines) {
  TagArray t(small_l1());
  const Addr a = line_in_set(0, 0), b = line_in_set(0, 1);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kShared);
  t.fill(t.find_victim(b, kAnyVictim), b, Moesi::kShared);
  const auto sa = t.find(a);
  t.drop_slot(t.find(b));
  EXPECT_EQ(t.find(a), sa);
  EXPECT_EQ(t.line(sa), a);
}

TEST(TagArray, DropIsIdempotentAndAddressSpecific) {
  TagArray t(small_l1());
  const Addr a = line_in_set(0, 0), b = line_in_set(0, 1);
  t.fill(t.find_victim(a, kAnyVictim), a, Moesi::kShared);
  t.fill(t.find_victim(b, kAnyVictim), b, Moesi::kShared);
  const auto sa = t.find(a);
  t.drop_slot(sa);
  t.drop_slot(sa);
  EXPECT_EQ(t.find(a), kNoSlot);
  ASSERT_NE(t.find(b), kNoSlot);
  EXPECT_EQ(t.line(t.find(b)), b);
}

TEST(TagArray, CountsFillsAndEvictions) {
  TagArray t(small_l1());
  const Addr a = line_in_set(2, 0), b = line_in_set(2, 1), c = line_in_set(2, 2);
  for (const Addr x : {a, b, c}) {
    t.fill(t.find_victim(x, kAnyVictim), x, Moesi::kShared);
  }
  EXPECT_EQ(t.fills(), 3u);
  EXPECT_EQ(t.evictions(), 1u);  // only the third fill displaced anything
}

CacheLevelConfig level(std::uint32_t sets, std::uint32_t ways) {
  CacheLevelConfig c;
  c.size_bytes = sets * ways * kLineBytes;
  c.ways = ways;
  return c;
}

TEST(RecencyTags, GeometryFromConfig) {
  const SimConfig def;
  EXPECT_EQ(RecencyTags(def.l2).num_sets(), 512u);   // paper Table II
  EXPECT_EQ(RecencyTags(def.l3).num_sets(), 2048u);  // paper Table II
  EXPECT_EQ(RecencyTags(def.l3).ways(), 16u);
  CacheLevelConfig c = level(8, 4);
  c.line_bytes = 128;
  c.size_bytes *= 2;
  EXPECT_THROW(RecencyTags{c}, std::invalid_argument);
  EXPECT_THROW(RecencyTags{level(4, 4)}, std::invalid_argument)
      << "fewer than 8 sets leaves no room for the empty-way sentinel";
  EXPECT_THROW(RecencyTags{level(12, 4)}, std::invalid_argument);
}

TEST(RecencyTags, HitMovesToFrontMissEvictsTail) {
  RecencyTags t(level(8, 2));
  const Addr a = line_in_set(5, 0, 8), b = line_in_set(5, 1, 8),
             c = line_in_set(5, 2, 8);
  EXPECT_FALSE(t.lookup_or_fill(a));
  EXPECT_FALSE(t.lookup_or_fill(b));
  EXPECT_TRUE(t.lookup_or_fill(a));  // b is now LRU
  EXPECT_FALSE(t.lookup_or_fill(c));
  EXPECT_TRUE(t.contains(a));
  EXPECT_FALSE(t.contains(b)) << "LRU way must have been evicted";
  EXPECT_TRUE(t.contains(c));
  EXPECT_EQ(t.fills(), 3u);
  EXPECT_EQ(t.evictions(), 1u);
}

TEST(RecencyTags, DropClosesTheGapAndFreesAWay) {
  RecencyTags t(level(8, 3));
  const Addr a = line_in_set(0, 0, 8), b = line_in_set(0, 1, 8),
             c = line_in_set(0, 2, 8), d = line_in_set(0, 3, 8);
  for (const Addr x : {a, b, c}) t.lookup_or_fill(x);  // recency c, b, a
  t.drop(b);
  t.drop(b);  // absent: no-op
  EXPECT_FALSE(t.contains(b));
  EXPECT_FALSE(t.lookup_or_fill(d));
  EXPECT_EQ(t.evictions(), 0u) << "the dropped way takes the fill";
  EXPECT_FALSE(t.lookup_or_fill(b));
  EXPECT_FALSE(t.contains(a)) << "a stayed LRU across the drop";
  EXPECT_TRUE(t.contains(c));
  EXPECT_TRUE(t.contains(d));
}

TEST(RecencyTags, HighestGuestLineFitsTheTag) {
  // GAllocator keeps guest addresses below 2^40.
  RecencyTags t(level(RecencyTags::kMinSets, 2));
  const Addr top = (Addr{1} << 40) - kLineBytes;
  const Addr alias = top & ((Addr{RecencyTags::kMinSets} << kLineShift) - 1);
  EXPECT_FALSE(t.lookup_or_fill(top));
  EXPECT_FALSE(t.contains(alias)) << "same set, different tag";
  EXPECT_TRUE(t.lookup_or_fill(top));
}

// ---- randomized equivalence with TagArray ----------------------------------

/// The L2/L3 access as it used to run on a TagArray: hit → touch_slot, miss
/// → find_victim (nothing pinned) → fill. Returns the evicted line, or
/// kEmptyTag when the access hit or filled an empty way.
Addr tag_array_access(TagArray& t, Addr line, bool& hit) {
  if (const auto s = t.find(line); s != kNoSlot) {
    t.touch_slot(s);
    hit = true;
    return TagArray::kEmptyTag;
  }
  const auto v = t.find_victim(line, kAnyVictim);
  const Addr evicted = t.line(v);
  t.fill(v, line, Moesi::kShared);
  hit = false;
  return evicted;
}

/// The lines of `line`'s set in a TagArray (slots are set-major).
std::vector<Addr> set_lines(const TagArray& t, Addr line) {
  const auto set =
      static_cast<std::uint32_t>((line >> kLineShift) & (t.num_sets() - 1));
  std::vector<Addr> out;
  for (std::uint32_t w = 0; w < t.ways(); ++w) {
    const Addr l = t.line(set * t.ways() + w);
    if (l != TagArray::kEmptyTag) out.push_back(l);
  }
  return out;
}

/// Drives a TagArray and `Tags` (RecencyTags's interface) with one random
/// stream of accesses and drops over a few sets, each with `ways` + 2
/// candidate lines, the highest guest line among them. Returns "" or the
/// first divergence in hit/miss, evicted line, contents, fills() or
/// evictions().
template <typename Tags>
std::string first_divergence(std::uint32_t sets, std::uint32_t ways,
                             std::uint64_t seed, int steps) {
  const CacheLevelConfig cfg = level(sets, ways);
  TagArray ref(cfg);
  Tags dut(cfg);
  Rng rng(seed);
  const Addr tags_below =
      (Addr{1} << 40) >> (kLineShift + std::countr_zero(sets));
  std::vector<Addr> lines;
  for (const Addr set :
       {Addr{0}, Addr{sets - 1}, rng.below(sets), rng.below(sets)}) {
    for (std::uint32_t k = 0; k < ways + 2; ++k) {
      const Addr tag = k == 0 ? tags_below - 1 : rng.below(tags_below);
      lines.push_back((tag * sets + set) << kLineShift);
    }
  }
  for (int step = 0; step < steps; ++step) {
    const Addr line = lines[rng.below(lines.size())];
    const std::string at = "step " + std::to_string(step) + " line " +
                           std::to_string(line) + ": ";
    const std::vector<Addr> before = set_lines(ref, line);
    if (rng.below(10) == 0) {
      if (const auto s = ref.find(line); s != kNoSlot) ref.drop_slot(s);
      dut.drop(line);
    } else {
      bool ref_hit = false;
      const Addr ref_evicted = tag_array_access(ref, line, ref_hit);
      if (dut.lookup_or_fill(line) != ref_hit) return at + "hit/miss differs";
      Addr dut_evicted = TagArray::kEmptyTag;
      for (const Addr l : before) {
        if (!dut.contains(l)) dut_evicted = l;
      }
      if (dut_evicted != ref_evicted) return at + "evicted line differs";
    }
    for (const Addr l : lines) {
      if (dut.contains(l) != (ref.find(l) != kNoSlot)) {
        return at + "contents differ at line " + std::to_string(l);
      }
    }
    if (dut.fills() != ref.fills()) return at + "fills() differs";
    if (dut.evictions() != ref.evictions()) return at + "evictions() differs";
  }
  return {};
}

TEST(RecencyTagsEquivalence, ReplacesExactlyLikeTagArrayLru) {
  // 8 and 64 sets, then the Table II L2 (512) and L3 (2048) set counts.
  for (const std::uint32_t sets : {8u, 64u, 512u, 2048u}) {
    for (std::uint32_t ways = 1; ways <= 16; ++ways) {
      const std::uint64_t seed = sets * 31 + ways;
      EXPECT_EQ(first_divergence<RecencyTags>(sets, ways, seed, 3000), "")
          << sets << " sets x " << ways << " ways";
    }
  }
}

/// Must-fail model: evicts the most recently used line of a full set.
class MruEvictingTags {
 public:
  explicit MruEvictingTags(const CacheLevelConfig& cfg)
      : ways_(cfg.ways), sets_(cfg.num_sets()) {}
  bool lookup_or_fill(Addr line) {
    std::vector<Addr>& set = sets_[index(line)];
    auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else {
      ++fills_;
      if (set.size() == ways_) {
        ++evictions_;
        set.erase(set.begin());
      }
    }
    set.insert(set.begin(), line);
    return hit;
  }
  void drop(Addr line) { std::erase(sets_[index(line)], line); }
  [[nodiscard]] bool contains(Addr line) const {
    const std::vector<Addr>& set = sets_[index(line)];
    return std::find(set.begin(), set.end(), line) != set.end();
  }
  [[nodiscard]] std::uint64_t fills() const { return fills_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  [[nodiscard]] std::size_t index(Addr line) const {
    return (line >> kLineShift) & (sets_.size() - 1);
  }
  std::size_t ways_;
  std::vector<std::vector<Addr>> sets_;
  std::uint64_t fills_ = 0;
  std::uint64_t evictions_ = 0;
};

TEST(RecencyTagsEquivalence, MruEvictingModelFails) {
  for (const std::uint32_t ways : {2u, 16u}) {
    EXPECT_NE(first_divergence<MruEvictingTags>(512, ways, 5, 3000), "")
        << ways << " ways";
  }
}

TEST(Moesi, StateNames) {
  EXPECT_STREQ(to_string(Moesi::kInvalid), "I");
  EXPECT_STREQ(to_string(Moesi::kShared), "S");
  EXPECT_STREQ(to_string(Moesi::kExclusive), "E");
  EXPECT_STREQ(to_string(Moesi::kOwned), "O");
  EXPECT_STREQ(to_string(Moesi::kModified), "M");
}

}  // namespace
}  // namespace asfsim
