// Run statistics: everything needed to regenerate the paper's tables/figures.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/conflict.hpp"
#include "sim/addr_map.hpp"
#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// Collected over one simulation run. Cache-line aligned: the parallel
/// runner hammers one Stats per worker, and 64-byte alignment keeps two
/// workers' hot counters off the same host line (docs/performance.md).
class alignas(64) Stats {
 public:
  // ---- transactions ----------------------------------------------------
  std::uint64_t tx_attempts = 0;   // transaction launches incl. retries
  std::uint64_t tx_commits = 0;
  std::uint64_t tx_aborts = 0;
  /// Transactions that completed via the serializing software fallback
  /// (lock elision) after repeated capacity aborts (ASF is best-effort).
  std::uint64_t fallback_runs = 0;
  /// Transactions dispatched through the ATS serializing queue (extension).
  std::uint64_t ats_serialized = 0;
  std::array<std::uint64_t, 4> aborts_by_cause{};  // indexed by AbortCause

  // ---- conflicts (one record per aborted victim) -----------------------
  std::uint64_t conflicts_total = 0;
  std::uint64_t conflicts_false = 0;
  std::array<std::uint64_t, 3> false_by_type{};  // indexed by ConflictType
  std::array<std::uint64_t, 3> true_by_type{};

  /// False conflicts a finer-grained detector declined to signal although
  /// baseline ASF's per-line check would have (paper's "reduced" conflicts).
  std::uint64_t false_conflicts_avoided = 0;

  // ---- memory system ----------------------------------------------------
  std::uint64_t accesses = 0;
  std::uint64_t tx_accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t mem_fetches = 0;
  std::uint64_t c2c_transfers = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t piggyback_messages = 0;  // load responses carrying S-WR masks
  std::uint64_t dirty_refetches = 0;     // local hits forced to miss by Dirty
  std::uint64_t upgrades = 0;
  /// Cycles requesters stalled waiting for the snoop bus (contention).
  Cycle bus_wait_cycles = 0;

  // ---- figures-oriented histograms --------------------------------------
  /// Fig 8 (analytical): of the false conflicts seen by THIS run's
  /// detector, how many would still conflict when both access masks are
  /// quantized to N sub-blocks. Index i corresponds to N = 1<<i
  /// (1, 2, 4, 8, 16); index 0 therefore equals conflicts_false.
  std::array<std::uint64_t, 5> false_surviving_at{};

  /// Fig 4: false-conflict count by conflicting line address.
  AddrMap<std::uint64_t> false_by_line;
  /// Fig 5: transactional-access count by start byte offset within the line.
  std::array<std::uint64_t, 64> tx_access_by_offset{};
  /// Fig 3 (enabled on demand): cycles of tx launches / false conflicts.
  bool record_timeseries = false;
  std::vector<Cycle> tx_start_cycles;
  std::vector<Cycle> false_conflict_cycles;

  // ---- outcome -----------------------------------------------------------
  Cycle total_cycles = 0;
  /// Sum of in-transaction cycles over all attempts (committed + aborted);
  /// tx_busy_cycles / (ncores * total_cycles) is the transactional duty.
  Cycle tx_busy_cycles = 0;

  // ---- per-attempt profile (trace subsystem; always collected) -----------
  /// log2-bucketed attempt durations: bucket 0 holds value 0, bucket i
  /// holds values in [2^(i-1), 2^i), the last bucket absorbs the tail.
  std::array<std::uint64_t, 32> tx_duration_hist{};
  /// log2-bucketed read/write-set footprints (lines) at attempt end.
  std::array<std::uint64_t, 16> tx_read_lines_hist{};
  std::array<std::uint64_t, 16> tx_write_lines_hist{};
  /// In-transaction cycles of attempts that ended in an abort.
  Cycle wasted_cycles = 0;
  /// Abort-penalty + backoff stall cycles between retry attempts.
  Cycle backoff_cycles = 0;

  // ---- per-transaction latency (OLTP reporting; always collected) --------
  /// log2-bucketed LOGICAL transaction latencies: first hardware attempt's
  /// begin to commit (or fallback completion), so retries and backoff count
  /// toward the latency of the one logical transaction. Same bucketing as
  /// tx_duration_hist.
  std::array<std::uint64_t, 32> tx_latency_hist{};

  // ---- conflict provenance (opt-in; docs/observability.md) ---------------
  /// Set when the run executed with SimConfig::provenance. The vectors
  /// below are filled by prov::ProvCollector::flush and serialize as the
  /// stats blob's v4 section; when false they stay empty and the blob
  /// keeps the v3 header byte-for-byte (kernel-identity goldens).
  bool prov_enabled = false;
  /// Site names, indexed by prov::SiteId (row index into prov_site_table).
  std::vector<std::string> prov_site_names;
  /// Per-site rows, 11 values each: obj_size, objects, bytes,
  /// false WAR/RAW/WAW, true WAR/RAW/WAW, avoided, wasted cycles.
  std::vector<std::uint64_t> prov_site_table;
  /// Ranked hot lines, 4 values each: line, victim site, false, true
  /// (top 32 by total conflicts; deterministic tie-break on line, site).
  std::vector<std::uint64_t> prov_hot_lines;
  /// Site-pair matrix, 4 values each: requester site, victim site,
  /// false, true (every observed pair, key-sorted).
  std::vector<std::uint64_t> prov_pairs;

  // ---- contention management (opt-in; docs/contention.md) ----------------
  /// Set when the run executed with SimConfig::cm.stats. The fields below
  /// are flushed from the runtime's always-on per-core accounting at run
  /// end and serialize as the stats blob's v5 section; when false they stay
  /// empty/zero and the blob keeps its v3/v4 header byte-for-byte.
  bool cm_enabled = false;
  /// Per-core maximum run of consecutive non-lock-wait aborts (starvation
  /// headline; the chaos oracle audits it against the policy's bound).
  std::vector<std::uint64_t> cm_max_consec_aborts;
  /// Per-core cumulative in-transaction cycles burned by aborted attempts
  /// (fairness: see cm_wasted_gini()).
  std::vector<std::uint64_t> cm_wasted_by_core;
  /// Per-core cycle of the first commit/fallback completion (time-to-first-
  /// commit tail); 0 = the core never completed a transaction.
  std::vector<std::uint64_t> cm_first_commit_cycle;
  /// Conflicts routed through the ContentionPolicy (0 under the default
  /// requester-wins fast path, which never consults the policy object).
  std::uint64_t cm_policy_decisions = 0;
  /// Decisions where the policy ruled the REQUESTER the loser.
  std::uint64_t cm_requester_losses = 0;
  /// Fallback-lock acquisitions (the serialize escalation engaging).
  std::uint64_t cm_fallback_acquisitions = 0;

  // ---- hooks -------------------------------------------------------------
  void on_tx_attempt(Cycle now);
  void on_tx_commit();
  void on_tx_abort(AbortCause cause);
  void on_conflict(const ConflictRecord& rec);
  void on_avoided_false_conflict();
  void on_tx_access(std::uint32_t line_off);
  /// Attempt end (commit or abort): duration and footprint histograms.
  void on_attempt_end(Cycle duration, std::uint32_t read_lines,
                      std::uint32_t write_lines, bool aborted);
  void on_backoff(Cycle wait);
  /// Logical-transaction completion (commit or fallback): whole latency
  /// including retries and backoff.
  void on_tx_latency(Cycle latency);

  [[nodiscard]] static std::uint32_t log2_bucket(std::uint64_t v,
                                                 std::size_t nbuckets);

  // ---- derived -----------------------------------------------------------
  [[nodiscard]] double false_conflict_rate() const {
    return conflicts_total == 0
               ? 0.0
               : static_cast<double>(conflicts_false) / conflicts_total;
  }
  [[nodiscard]] double avg_retries() const {
    return tx_commits == 0
               ? 0.0
               : static_cast<double>(tx_attempts - tx_commits) / tx_commits;
  }
  /// Simulated clock rate used to convert cycles into wall time for the
  /// throughput metric (paper's 2.2 GHz Opteron cores).
  static constexpr double kSimClockHz = 2.2e9;
  /// Committed transactions per SIMULATED second (commits * hz / cycles).
  [[nodiscard]] double commits_per_simsec() const;
  /// Approximate p-th latency percentile (p in [0, 1]) in cycles, from
  /// tx_latency_hist with linear interpolation within the log2 bucket.
  [[nodiscard]] double latency_percentile(double p) const;
  /// Gini coefficient of cm_wasted_by_core (0 = every core burned the same
  /// wasted cycles, → 1 = one core absorbed all the waste). 0 when the v5
  /// section is off or fewer than two cores reported.
  [[nodiscard]] double cm_wasted_gini() const;
};

/// The stats blob's field list, in blob order (stats/serialize.cpp).
template <>
struct FieldTable<Stats> {
  static constexpr auto fields = std::tuple{
      field(&Stats::tx_attempts, {"tx_attempts"}),
      field(&Stats::tx_commits, {"tx_commits"}),
      field(&Stats::tx_aborts, {"tx_aborts"}),
      field(&Stats::fallback_runs, {"fallback_runs"}),
      field(&Stats::ats_serialized, {"ats_serialized"}),
      field(&Stats::aborts_by_cause, {"aborts_by_cause"}),
      field(&Stats::conflicts_total, {"conflicts_total"}),
      field(&Stats::conflicts_false, {"conflicts_false"}),
      field(&Stats::false_by_type, {"false_by_type"}),
      field(&Stats::true_by_type, {"true_by_type"}),
      field(&Stats::false_conflicts_avoided, {"false_conflicts_avoided"}),
      field(&Stats::accesses, {"accesses"}),
      field(&Stats::tx_accesses, {"tx_accesses"}),
      field(&Stats::l1_hits, {"l1_hits"}),
      field(&Stats::l2_hits, {"l2_hits"}),
      field(&Stats::l3_hits, {"l3_hits"}),
      field(&Stats::mem_fetches, {"mem_fetches"}),
      field(&Stats::c2c_transfers, {"c2c_transfers"}),
      field(&Stats::probes_sent, {"probes_sent"}),
      field(&Stats::piggyback_messages, {"piggyback_messages"}),
      field(&Stats::dirty_refetches, {"dirty_refetches"}),
      field(&Stats::upgrades, {"upgrades"}),
      field(&Stats::bus_wait_cycles, {"bus_wait_cycles"}),
      field(&Stats::false_surviving_at, {"false_surviving_at"}),
      field(&Stats::false_by_line, {"false_by_line"}),
      field(&Stats::tx_access_by_offset, {"tx_access_by_offset"}),
      field(&Stats::record_timeseries, {"record_timeseries"}),
      field(&Stats::tx_start_cycles, {"tx_start_cycles"}),
      field(&Stats::false_conflict_cycles, {"false_conflict_cycles"}),
      field(&Stats::total_cycles, {"total_cycles"}),
      field(&Stats::tx_busy_cycles, {"tx_busy_cycles"}),
      field(&Stats::tx_duration_hist, {"tx_duration_hist"}),
      field(&Stats::tx_read_lines_hist, {"tx_read_lines_hist"}),
      field(&Stats::tx_write_lines_hist, {"tx_write_lines_hist"}),
      field(&Stats::wasted_cycles, {"wasted_cycles"}),
      field(&Stats::backoff_cycles, {"backoff_cycles"}),
      field(&Stats::tx_latency_hist, {"tx_latency_hist"}),
      field(&Stats::prov_enabled,
            {.key = "prov_enabled", .section = BlobSection::kProv}),
      field(&Stats::prov_site_names,
            {.key = "prov_site_names", .section = BlobSection::kProv}),
      field(&Stats::prov_site_table,
            {.key = "prov_site_table", .section = BlobSection::kProv}),
      field(&Stats::prov_hot_lines,
            {.key = "prov_hot_lines", .section = BlobSection::kProv}),
      field(&Stats::prov_pairs,
            {.key = "prov_pairs", .section = BlobSection::kProv}),
      field(&Stats::cm_enabled,
            {.key = "cm_enabled", .section = BlobSection::kCm}),
      field(&Stats::cm_max_consec_aborts,
            {.key = "cm_max_consec_aborts", .section = BlobSection::kCm}),
      field(&Stats::cm_wasted_by_core,
            {.key = "cm_wasted_by_core", .section = BlobSection::kCm}),
      field(&Stats::cm_first_commit_cycle,
            {.key = "cm_first_commit_cycle", .section = BlobSection::kCm}),
      field(&Stats::cm_policy_decisions,
            {.key = "cm_policy_decisions", .section = BlobSection::kCm}),
      field(&Stats::cm_requester_losses,
            {.key = "cm_requester_losses", .section = BlobSection::kCm}),
      field(&Stats::cm_fallback_acquisitions,
            {.key = "cm_fallback_acquisitions", .section = BlobSection::kCm}),
  };
};
static_assert(table_complete<Stats>(), "every Stats member needs an entry");

}  // namespace asfsim
