// Conflict-provenance pipeline: site registry resolution, collector
// aggregation, the opt-in stats-blob v4 section, zero-perturbation of the
// simulation when enabled, and exact reconciliation of per-site totals
// against the aggregate conflict counters (docs/observability.md).
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "harness/experiment.hpp"
#include "mem/addr.hpp"
#include "oltp/oltp_config.hpp"
#include "prov/collector.hpp"
#include "prov/site_registry.hpp"
#include "runner/job_spec.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

// ---- site registry ----------------------------------------------------------

TEST(SiteRegistry, RegisterDedupesAndSanitizes) {
  prov::SiteRegistry reg;
  ASSERT_EQ(reg.sites().size(), 1u);  // slot 0 is always "(untagged)"
  EXPECT_EQ(reg.sites()[prov::kUntaggedSite].name, "(untagged)");

  const prov::SiteId a = reg.register_site("oltp.record", 24);
  EXPECT_NE(a, prov::kUntaggedSite);
  EXPECT_EQ(reg.register_site("oltp.record", 24), a);
  // First obj_size wins on re-registration.
  EXPECT_EQ(reg.register_site("oltp.record", 999), a);
  EXPECT_EQ(reg.sites()[a].obj_size, 24u);

  // Names are clamped to the blob/JSONL-safe charset; "" gets a placeholder.
  const prov::SiteId weird = reg.register_site("my site #1", 8);
  EXPECT_EQ(reg.sites()[weird].name, "my_site__1");
  EXPECT_EQ(reg.register_site("my_site__1", 8), weird);  // post-sanitize alias
  const prov::SiteId unnamed = reg.register_site("", 8);
  EXPECT_EQ(reg.sites()[unnamed].name, "(unnamed)");
}

TEST(SiteRegistry, ResolvesAddressesToSiteAndObjectIndex) {
  prov::SiteRegistry reg;
  const prov::SiteId rec = reg.register_site("rec", 24);
  reg.on_alloc(1000, 72, rec);  // objects 0..2 at [1000, 1072)

  EXPECT_EQ(reg.resolve(1000).site, rec);
  EXPECT_EQ(reg.resolve(1000).object, 0u);
  EXPECT_EQ(reg.resolve(1024).object, 1u);
  EXPECT_EQ(reg.resolve(1071).object, 2u);
  EXPECT_EQ(reg.resolve(999).site, prov::kUntaggedSite);
  EXPECT_EQ(reg.resolve(1072).site, prov::kUntaggedSite);
  EXPECT_EQ(reg.sites()[rec].objects, 3u);
  EXPECT_EQ(reg.sites()[rec].bytes, 72u);

  // A later extent at a LOWER address (per-core arenas interleave) must
  // still resolve: the registry re-sorts lazily, and object indexing
  // continues in allocation order, not address order.
  reg.on_alloc(500, 48, rec);  // objects 3..4 at [500, 548)
  EXPECT_EQ(reg.resolve(524).site, rec);
  EXPECT_EQ(reg.resolve(524).object, 4u);
  EXPECT_EQ(reg.resolve(1024).object, 1u);
  EXPECT_EQ(reg.sites()[rec].objects, 5u);
}

// ---- collector --------------------------------------------------------------

TEST(ProvCollector, AggregatesBySiteLineAndPair) {
  prov::SiteRegistry reg;
  const prov::SiteId a = reg.register_site("a", 8);
  const prov::SiteId b = reg.register_site("b", 8);
  reg.on_alloc(0, 64, a);    // line 0: objects a0..a7
  reg.on_alloc(64, 64, b);   // line 64: objects b0..b7

  prov::ProvCollector col(reg, 4);  // 4 sub-blocks of 16 bytes

  // False WAR inside line 0: probe bytes [8,16) vs victim bytes [0,8) —
  // disjoint objects of site a sharing one sub-block.
  ConflictRecord f;
  f.line = 0;
  f.probe_bytes = byte_mask(8, 8);
  f.victim_bytes = byte_mask(0, 8);
  f.invalidating = true;
  f.is_false = true;
  f.type = ConflictType::kWAR;
  const auto at = col.on_conflict(f, 100);
  EXPECT_EQ(at.victim_site, a);
  EXPECT_EQ(at.victim_obj, 0u);
  EXPECT_EQ(at.victim_sub, 0u);
  EXPECT_EQ(at.req_site, a);
  EXPECT_EQ(at.req_obj, 1u);

  // True WAW on line 64: overlapping bytes [48,56) → victim named by the
  // overlap, sub-block 3.
  ConflictRecord t;
  t.line = 64;
  t.probe_bytes = byte_mask(48, 8);
  t.victim_bytes = byte_mask(48, 8);
  t.invalidating = true;
  t.is_false = false;
  t.type = ConflictType::kWAW;
  const auto at2 = col.on_conflict(t, 40);
  EXPECT_EQ(at2.victim_site, b);
  EXPECT_EQ(at2.victim_obj, 6u);
  EXPECT_EQ(at2.victim_sub, 3u);

  // Avoided credit on line 0 against site a.
  col.on_avoided(0, byte_mask(32, 8), byte_mask(0, 8));

  Stats s;
  col.flush(s);
  ASSERT_TRUE(s.prov_enabled);
  ASSERT_EQ(s.prov_site_names.size(), 3u);  // (untagged), a, b
  ASSERT_EQ(s.prov_site_table.size(), 3 * prov::kSiteStride);

  const auto* ra = prov::site_row(s.prov_site_table, a);
  EXPECT_EQ(ra[prov::kSiteObjSize], 8u);
  EXPECT_EQ(ra[prov::kSiteObjects], 8u);
  EXPECT_EQ(ra[prov::kSiteBytes], 64u);
  EXPECT_EQ(ra[prov::kSiteFalse + 0], 1u);  // false WAR
  EXPECT_EQ(ra[prov::kSiteTrue + 0], 0u);   // true WAR
  EXPECT_EQ(ra[prov::kSiteAvoided], 1u);
  EXPECT_EQ(ra[prov::kSiteWasted], 100u);

  const auto* rb = prov::site_row(s.prov_site_table, b);
  EXPECT_EQ(rb[prov::kSiteFalse + 2], 0u);  // false WAW
  EXPECT_EQ(rb[prov::kSiteTrue + 2], 1u);   // true WAW
  EXPECT_EQ(rb[prov::kSiteWasted], 40u);

  ASSERT_EQ(s.prov_hot_lines.size(), 2 * prov::kLineStride);
  // Equal totals (1 each): ascending line breaks the tie.
  EXPECT_EQ(s.prov_hot_lines[0], 0u);   // line
  EXPECT_EQ(s.prov_hot_lines[1], a);    // victim site
  EXPECT_EQ(s.prov_hot_lines[2], 1u);   // false
  EXPECT_EQ(s.prov_hot_lines[4], 64u);
  EXPECT_EQ(s.prov_hot_lines[7], 1u);   // true

  ASSERT_EQ(s.prov_pairs.size(), 2 * prov::kPairStride);
  EXPECT_EQ(s.prov_pairs[0], a);  // requester
  EXPECT_EQ(s.prov_pairs[1], a);  // victim
  EXPECT_EQ(s.prov_pairs[2], 1u);
}

// ---- stats blob v4 ----------------------------------------------------------

TEST(ProvStatsBlob, DisabledBlobKeepsV3HeaderAndNoProvSection) {
  Stats s;
  s.tx_commits = 7;
  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v3", 0), 0u);
  EXPECT_EQ(blob.find("prov"), std::string::npos);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_FALSE(back.prov_enabled);
}

TEST(ProvStatsBlob, V4SectionRoundTrips) {
  Stats s;
  s.prov_enabled = true;
  s.prov_site_names = {"(untagged)", "oltp.record"};
  s.prov_site_table.assign(2 * prov::kSiteStride, 0);
  s.prov_site_table[prov::kSiteStride + prov::kSiteFalse] = 42;  // WARs
  s.prov_hot_lines = {4096, 1, 42, 0};
  s.prov_pairs = {1, 1, 42, 0};

  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v4", 0), 0u);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_TRUE(back.prov_enabled);
  EXPECT_EQ(back.prov_site_names, s.prov_site_names);
  EXPECT_EQ(back.prov_site_table, s.prov_site_table);
  EXPECT_EQ(back.prov_hot_lines, s.prov_hot_lines);
  EXPECT_EQ(back.prov_pairs, s.prov_pairs);

  // Truncating the section must fail loudly, not yield a half-read blob.
  Stats junk;
  EXPECT_FALSE(deserialize_stats(blob.substr(0, blob.size() - 4), junk));
}

// ---- end-to-end: provenance on a contended OLTP run -------------------------

ExperimentResult contended_oltp(DetectorKind det, std::uint32_t nsub,
                                bool provenance) {
  ExperimentConfig cfg;
  cfg.detector = det;
  cfg.nsub = nsub;
  cfg.params.scale = 0.25;
  cfg.params.oltp.theta = 1.2;
  cfg.params.oltp.read_ratio = 0.5;
  cfg.sim.provenance = provenance;
  return run_experiment("oltp", cfg);
}

TEST(ProvRun, EnablingProvenanceDoesNotPerturbTheSimulation) {
  const auto off = contended_oltp(DetectorKind::kSubBlock, 4, false);
  auto on = contended_oltp(DetectorKind::kSubBlock, 4, true);
  ASSERT_TRUE(off.ok()) << off.validation_error;
  ASSERT_TRUE(on.ok()) << on.validation_error;
  EXPECT_TRUE(on.stats.prov_enabled);
  EXPECT_GT(on.stats.prov_site_table.size(), 0u);

  // Strip the opt-in section; everything else must be byte-identical.
  on.stats.prov_enabled = false;
  on.stats.prov_site_names.clear();
  on.stats.prov_site_table.clear();
  on.stats.prov_hot_lines.clear();
  on.stats.prov_pairs.clear();
  EXPECT_EQ(serialize_stats(off.stats), serialize_stats(on.stats));
}

TEST(ProvRun, PerSiteTotalsReconcileExactlyWithAggregateCounters) {
  const auto r = contended_oltp(DetectorKind::kSubBlock, 4, true);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  const Stats& s = r.stats;
  ASSERT_TRUE(s.prov_enabled);
  ASSERT_EQ(s.prov_site_table.size(),
            s.prov_site_names.size() * prov::kSiteStride);
  ASSERT_GT(s.conflicts_total, 0u);

  std::uint64_t nfalse = 0, ntrue = 0, avoided = 0;
  std::array<std::uint64_t, 3> false_by_type{}, true_by_type{};
  for (std::size_t i = 0; i < s.prov_site_names.size(); ++i) {
    const auto* row = prov::site_row(s.prov_site_table, i);
    nfalse += prov::site_false(row);
    ntrue += prov::site_true(row);
    for (int t = 0; t < 3; ++t) {
      false_by_type[t] += row[prov::kSiteFalse + t];
      true_by_type[t] += row[prov::kSiteTrue + t];
    }
    avoided += row[prov::kSiteAvoided];
  }
  EXPECT_EQ(nfalse, s.conflicts_false);
  EXPECT_EQ(nfalse + ntrue, s.conflicts_total);
  EXPECT_EQ(avoided, s.false_conflicts_avoided);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(false_by_type[t], s.false_by_type[t]) << "type " << t;
    EXPECT_EQ(true_by_type[t], s.true_by_type[t]) << "type " << t;
  }

  // The pair matrix is complete (unlike hot lines, which are top-32).
  std::uint64_t pair_false = 0, pair_true = 0;
  for (std::size_t i = 0; i < s.prov_pairs.size(); i += prov::kPairStride) {
    pair_false += s.prov_pairs[i + 2];
    pair_true += s.prov_pairs[i + 3];
  }
  EXPECT_EQ(pair_false, s.conflicts_false);
  EXPECT_EQ(pair_false + pair_true, s.conflicts_total);
}

TEST(ProvRun, RecordTableIsTheTopFalseConflictSiteUnderBaseline) {
  const auto r = contended_oltp(DetectorKind::kBaseline, 1, true);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  const Stats& s = r.stats;
  ASSERT_GT(s.conflicts_false, 0u);

  std::size_t top = 0;
  std::uint64_t top_false = 0;
  for (std::size_t i = 0; i < s.prov_site_names.size(); ++i) {
    const std::uint64_t f =
        prov::site_false(prov::site_row(s.prov_site_table, i));
    if (f > top_false) {
      top_false = f;
      top = i;
    }
  }
  // The unpadded record table manufactures the false sharing; the report
  // must name it, not the allocator or a control structure.
  EXPECT_EQ(s.prov_site_names[top], "oltp.record");
  EXPECT_GT(top_false, 0u);
}

// ---- jobspec identity -------------------------------------------------------

TEST(ProvJobSpec, ProvenanceAndHotWindowParticipateInTheHash) {
  ExperimentConfig base;
  const std::string h0 = runner::make_job_spec("oltp", base).hash_hex;

  ExperimentConfig p = base;
  p.sim.provenance = true;
  const std::string h1 = runner::make_job_spec("oltp", p).hash_hex;

  ExperimentConfig w = base;
  w.params.oltp.hot_window = 64;
  const std::string h2 = runner::make_job_spec("oltp", w).hash_hex;

  EXPECT_NE(h0, h1);
  EXPECT_NE(h0, h2);
  EXPECT_NE(h1, h2);
}

// ---- YCSB-D sliding hot window ----------------------------------------------

TEST(OltpHotWindow, ValidatedAndDeterministic) {
  OltpConfig c;
  c.hot_window = c.records;
  EXPECT_TRUE(c.validate().empty());
  c.hot_window = c.records + 1;
  EXPECT_FALSE(c.validate().empty());

  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.nsub = 4;
  cfg.params.scale = 0.2;
  cfg.params.oltp.mix = OltpMix::kD;
  cfg.params.oltp.hot_window = 64;
  const auto a = run_experiment("oltp", cfg);
  const auto b = run_experiment("oltp", cfg);
  ASSERT_TRUE(a.ok()) << a.validation_error;
  EXPECT_GT(a.stats.tx_commits, 0u);
  EXPECT_EQ(serialize_stats(a.stats), serialize_stats(b.stats));

  // The window changes which keys collide, so it must change the outcome —
  // otherwise the knob silently fell out of the key-draw path.
  ExperimentConfig whole = cfg;
  whole.params.oltp.hot_window = 0;
  const auto c2 = run_experiment("oltp", whole);
  ASSERT_TRUE(c2.ok()) << c2.validation_error;
  EXPECT_NE(serialize_stats(a.stats), serialize_stats(c2.stats));
}

}  // namespace
}  // namespace asfsim
