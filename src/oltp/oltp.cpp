// oltp — key-value table + YCSB-style transaction driver (the contention
// lab: docs/workloads.md, "The OLTP/KV family").
//
// The table is `records` fixed-size records of stride 8 + payload_bytes
// (version word + payload), allocated through the per-core gallocator with
// record i striped into core (i % threads)'s pool. Strides are deliberately
// unpadded, so records of one pool pack several to a cache line and skewed
// key traffic turns into exactly the false sharing the paper studies.
//
// Each transaction executes tx_len operations drawn from the configured
// read/update/rmw/scan mix over zipf-distributed keys. Keys and op kinds
// are drawn OUTSIDE the transaction body (run_tx bodies must be
// re-invocable), so aborted attempts retry the same logical transaction.
//
// Self-validation (detectors must never change results, only performance):
//   1. conservation — every committed read-modify-write increments exactly
//      one version word, so sum(versions) must equal the host-side count of
//      committed RMW ops (a lost update breaks this);
//   2. write atomicity — update/rmw ops overwrite ALL payload words of a
//      record with one uniquely tagged value, so every record must read
//      back either its initial pattern or a single valid tag (a torn or
//      non-serializable write breaks this).
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "oltp/oltp_config.hpp"
#include "oltp/zipf.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

enum class OpKind : std::uint8_t { kRead, kUpdate, kRmw, kScan };

struct Op {
  OpKind kind;
  std::uint64_t key;
  Addr rec;  // record_addr_[key], resolved at plan time
};

class OltpWorkload final : public Workload {
 public:
  const char* name() const override { return "oltp"; }
  const char* description() const override {
    return "zipf-skewed key-value transactions (YCSB-style mix driver)";
  }

  void setup(Machine& m, const WorkloadParams& p) override {
    cfg_ = p.oltp.resolved();
    if (std::string err = cfg_.validate(); !err.empty()) {
      throw std::invalid_argument("oltp: " + err);
    }
    threads_ = p.threads;
    ntx_per_thread_ = p.scaled(cfg_.tx_per_thread);
    words_ = cfg_.payload_bytes / 8;
    const std::uint64_t stride = 8 + cfg_.payload_bytes;

    record_addr_.resize(cfg_.records);
    const prov::SiteId rec_site =
        m.galloc().register_site("oltp.record", stride);
    for (std::uint64_t i = 0; i < cfg_.records; ++i) {
      const CoreId pool = static_cast<CoreId>(i % threads_);
      record_addr_[i] = m.galloc().alloc_local(pool, stride, 8, rec_site);
      m.poke(record_addr_[i], 8, 0);  // version
      for (std::uint32_t j = 0; j < words_; ++j) {
        m.poke(record_addr_[i] + 8 + 8 * std::uint64_t{j}, 8, init_word(i, j));
      }
    }

    zipf_ = std::make_unique<ZipfGenerator>(cfg_.records, cfg_.theta);
    if (cfg_.hot_window > 0) {
      // YCSB-D "latest": skew is over recency (distance behind a sliding
      // per-run insert frontier), not over absolute rank.
      window_zipf_ = std::make_unique<ZipfGenerator>(
          std::min(cfg_.hot_window, cfg_.records), cfg_.theta);
    }
    committed_rmws_.assign(threads_, 0);
    for (CoreId t = 0; t < threads_; ++t) {
      m.spawn(t, worker(m.ctx(t), this, ntx_per_thread_));
    }
  }

  std::string validate(Machine& m) override {
    std::uint64_t rmws = 0;
    for (const std::uint64_t c : committed_rmws_) rmws += c;
    std::uint64_t vsum = 0;
    for (std::uint64_t i = 0; i < cfg_.records; ++i) {
      vsum += m.peek(record_addr_[i], 8);
      if (std::string err = check_payload(m, i); !err.empty()) return err;
    }
    if (vsum != rmws) {
      return "rmw conservation broken: version sum " + std::to_string(vsum) +
             ", committed rmw ops " + std::to_string(rmws);
    }
    return {};
  }

 private:
  /// Initial payload word j of record `key`; disjoint from every tag (tags
  /// carry a nonzero core field in bits [40, 63]).
  static std::uint64_t init_word(std::uint64_t key, std::uint32_t j) {
    return key * 31 + j;
  }
  /// Unique per (core, transaction) stamp written to every payload word.
  static std::uint64_t tag_value(CoreId core, std::uint64_t seq) {
    return ((std::uint64_t{core} + 1) << 40) | (seq + 1);
  }

  std::string check_payload(Machine& m, std::uint64_t key) const {
    const Addr base = record_addr_[key] + 8;
    const std::uint64_t w0 = m.peek(base, 8);
    bool initial = true;
    bool tagged = true;
    for (std::uint32_t j = 0; j < words_; ++j) {
      const std::uint64_t w = m.peek(base + 8 * std::uint64_t{j}, 8);
      if (w != init_word(key, j)) initial = false;
      if (w != w0) tagged = false;
    }
    if (initial) return {};
    const std::uint64_t core_field = w0 >> 40;
    const std::uint64_t seq_field = w0 & ((std::uint64_t{1} << 40) - 1);
    if (!tagged || core_field == 0 || core_field > threads_ ||
        seq_field == 0 || seq_field > ntx_per_thread_) {
      return "record " + std::to_string(key) +
             " payload is torn or carries an impossible tag (" +
             std::to_string(w0) + "): update atomicity violated";
    }
    return {};
  }

  /// One key draw; consumes exactly one next_double either way, so the
  /// per-core rng streams stay in lockstep across hot-window settings.
  ///
  /// hot_window == 0: plain zipf over absolute rank (YCSB-C shape).
  /// hot_window  > 0: YCSB-D "latest" — each thread advances a virtual
  /// insert frontier as it issues transactions (global position
  /// tx * threads + core, wrapped onto the fixed table), and keys are drawn
  /// a zipf-distributed *distance* behind that frontier, bounded by the
  /// window. The hot set is therefore a sliding window of recently
  /// "inserted" records rather than a fixed head.
  std::uint64_t draw_key(GuestCtx& c, std::uint64_t tx) const {
    if (!window_zipf_) return zipf_->next(c.rng());
    const std::uint64_t head =
        (tx * threads_ + c.core()) % cfg_.records;
    const std::uint64_t offset = window_zipf_->next(c.rng());
    return (head + cfg_.records - offset) % cfg_.records;
  }

  static Task<void> worker(GuestCtx& c, OltpWorkload* w, std::uint64_t ntx) {
    const OltpConfig& cfg = w->cfg_;
    std::vector<Op> ops;
    ops.reserve(cfg.tx_len);
    for (std::uint64_t tx = 0; tx < ntx; ++tx) {
      // Plan the whole transaction before entering it: run_tx may re-invoke
      // the body after an abort, and a replanned retry would be a different
      // logical transaction. Record addresses are resolved here too: the
      // tx_len lookups into the large address table then overlap on the
      // host, instead of one dependent miss after every resume of the body.
      ops.clear();
      for (std::uint32_t j = 0; j < cfg.tx_len; ++j) {
        const double u = c.rng().next_double();
        OpKind kind = OpKind::kUpdate;
        if (u < cfg.read_ratio) {
          kind = OpKind::kRead;
        } else if (u < cfg.read_ratio + cfg.rmw_ratio) {
          kind = OpKind::kRmw;
        } else if (u < cfg.read_ratio + cfg.rmw_ratio + cfg.scan_ratio) {
          kind = OpKind::kScan;
        }
        const std::uint64_t key = w->draw_key(c, tx);
        ops.push_back({kind, key, w->record_addr_[key]});
      }
      const std::uint64_t tag = tag_value(c.core(), tx);
      std::uint64_t rmws_in_tx = 0;
      co_await c.run_tx([&]() -> Task<void> {
        rmws_in_tx = 0;  // the body must be re-invocable after an abort
        for (const Op& op : ops) {
          const Addr rec = op.rec;
          switch (op.kind) {
            case OpKind::kRead: {
              (void)co_await c.load_u64(rec);
              for (std::uint32_t j = 0; j < w->words_; ++j) {
                (void)co_await c.load_u64(rec + 8 + 8 * std::uint64_t{j});
              }
              break;
            }
            case OpKind::kUpdate: {
              for (std::uint32_t j = 0; j < w->words_; ++j) {
                co_await c.store_u64(rec + 8 + 8 * std::uint64_t{j}, tag);
              }
              break;
            }
            case OpKind::kRmw: {
              const std::uint64_t v = co_await c.load_u64(rec);
              co_await c.store_u64(rec, v + 1);
              for (std::uint32_t j = 0; j < w->words_; ++j) {
                co_await c.store_u64(rec + 8 + 8 * std::uint64_t{j}, tag);
              }
              ++rmws_in_tx;
              break;
            }
            case OpKind::kScan: {
              for (std::uint32_t k = 0; k < cfg.scan_len; ++k) {
                const std::uint64_t key = (op.key + k) % cfg.records;
                (void)co_await c.load_u64(w->record_addr_[key]);
              }
              break;
            }
          }
        }
      });
      // run_tx completes exactly once (commit or fallback), so the body's
      // last invocation is the committed one.
      w->committed_rmws_[c.core()] += rmws_in_tx;
      co_await c.work(8);  // think time between transactions
    }
  }

  OltpConfig cfg_;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::unique_ptr<ZipfGenerator> window_zipf_;  // hot_window > 0 only
  std::vector<Addr> record_addr_;
  std::vector<std::uint64_t> committed_rmws_;  // per core
  std::uint64_t ntx_per_thread_ = 0;
  std::uint32_t words_ = 0;
  std::uint32_t threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_oltp() {
  return std::make_unique<OltpWorkload>();
}

}  // namespace asfsim
