// vacation — client/server travel reservation system (STAMP).
//
// Three red-black-tree-backed resource tables (cars / flights / rooms) plus
// a customer table. Client transactions are long, read-dominant tree
// traversals over malloc-packed 48-byte nodes with occasional updates —
// the paper's WAR-dominant benchmark (Fig 2) with near-uniform false-
// conflict distribution across lines (Fig 4) and 8-byte-granular intra-line
// accesses (Fig 5).
#include <algorithm>
#include <vector>

#include "guest/grbtree.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

class VacationWorkload final : public Workload {
 public:
  const char* name() const override { return "vacation"; }
  const char* description() const override {
    return "client/server travel reservation system";
  }

  void setup(Machine& m, const WorkloadParams& p) override {
    nrelations_ = p.scaled(128);
    ntx_per_thread_ = p.scaled(96);
    threads_ = p.threads;

    for (auto& table : tables_) table = GRBTree::create(m);
    customers_ = GRBTree::create(m);
    log_seq_ = m.galloc().alloc(
        64, 64, m.galloc().register_site("vacation.log_seq", 64));
    m.poke(log_seq_, 8, 0);

    Rng rng(p.seed * 57 + 11);
    initial_avail_ = 0;
    for (auto& table : tables_) {
      for (std::uint64_t id = 1; id <= nrelations_; ++id) {
        const std::uint64_t avail = 2 + rng.below(6);
        table.host_insert(m, id, avail);
        initial_avail_ += avail;
      }
    }
    for (std::uint64_t cid = 1; cid <= nrelations_; ++cid) {
      customers_.host_insert(m, cid, 0);
    }

    for (CoreId t = 0; t < threads_; ++t) {
      m.spawn(t, worker(m.ctx(t), this, ntx_per_thread_));
    }
  }

  std::string validate(Machine& m) override {
    for (const auto& table : tables_) {
      if (table.host_validate(m) < 0) {
        return "vacation: resource tree violates red-black invariants";
      }
    }
    if (customers_.host_validate(m) < 0) {
      return "vacation: customer tree violates red-black invariants";
    }
    // Conservation: every unit that left a resource table must appear as a
    // customer reservation.
    std::uint64_t avail = 0;
    for (std::uint64_t id = 1; id <= nrelations_; ++id) {
      for (const auto& table : tables_) {
        avail += table.host_find(m, id, 0);
      }
    }
    std::uint64_t reserved = 0;
    for (std::uint64_t cid = 1; cid <= nrelations_; ++cid) {
      reserved += customers_.host_find(m, cid, 0);
    }
    if (avail + reserved != initial_avail_) {
      return "vacation: availability not conserved (" + std::to_string(avail) +
             " + " + std::to_string(reserved) +
             " != " + std::to_string(initial_avail_) + ")";
    }
    return {};
  }

 private:
  static constexpr std::uint32_t kTables = 3;  // cars, flights, rooms
  static constexpr std::uint32_t kQueriesPerTx = 6;
  static constexpr std::uint64_t kOfferBase = 1u << 20;  // above resource ids

  static Task<void> worker(GuestCtx& c, VacationWorkload* w,
                           std::uint64_t ntx) {
    // Tiny inputs have fewer than 8 relations; the hot set must stay
    // inside the tables or bookings would land on ids validate() never sums.
    const std::uint64_t hot = std::min<std::uint64_t>(8, w->nrelations_);
    for (std::uint64_t i = 0; i < ntx; ++i) {
      const std::uint64_t action = c.rng().below(100);
      std::uint64_t ids[kQueriesPerTx];
      std::uint32_t which[kQueriesPerTx];
      for (std::uint32_t q = 0; q < kQueriesPerTx; ++q) {
        // Popular resources: half the queries hit a small hot set, which is
        // what produces vacation's true conflicts.
        ids[q] = c.rng().chance(0.5) ? 1 + c.rng().below(hot)
                                     : 1 + c.rng().below(w->nrelations_);
        which[q] = static_cast<std::uint32_t>(c.rng().below(kTables));
      }
      const std::uint64_t cid = c.rng().chance(0.5)
                                    ? 1 + c.rng().below(hot)
                                    : 1 + c.rng().below(w->nrelations_);

      if (action < 80) {
        // Make reservation: browse several resources, book the first
        // available one for the customer. A fraction of bookings also go
        // through the shared reservation log (snapshot at start, sequence
        // bump at commit) whose conflicts are true conflicts.
        const bool logged = c.rng().chance(0.3);
        co_await c.run_tx([&]() -> Task<void> {
          std::uint64_t snap = 0;
          if (logged) snap = co_await c.load_u64(w->log_seq_);
          std::uint32_t best = kQueriesPerTx;
          std::uint64_t best_avail = 0;
          for (std::uint32_t q = 0; q < kQueriesPerTx; ++q) {
            const std::uint64_t avail =
                co_await w->tables_[which[q]].find(c, ids[q], 0);
            if (avail > 0 && best == kQueriesPerTx) {
              best = q;
              best_avail = avail;
            }
          }
          if (best == kQueriesPerTx) co_return;  // nothing bookable
          co_await w->tables_[which[best]].update(c, ids[best],
                                                  best_avail - 1);
          const std::uint64_t r = co_await w->customers_.find(c, cid, 0);
          co_await w->customers_.update(c, cid, r + 1);
          if (logged) co_await c.store_u64(w->log_seq_, snap + 1);
        });
      } else if (action < 90) {
        // Return a reservation held by the customer to a resource table.
        co_await c.run_tx([&]() -> Task<void> {
          const std::uint64_t r = co_await w->customers_.find(c, cid, 0);
          if (r == 0) co_return;
          const std::uint64_t avail =
              co_await w->tables_[which[0]].find(c, ids[0], 0);
          co_await w->tables_[which[0]].update(c, ids[0], avail + 1);
          co_await w->customers_.update(c, cid, r - 1);
        });
      } else if (action < 96) {
        // Manage tables: browse for price checks (read-only traversals).
        co_await c.run_tx([&]() -> Task<void> {
          std::uint64_t sum = 0;
          for (std::uint32_t q = 0; q < kQueriesPerTx; ++q) {
            sum += co_await w->tables_[which[q]].find(c, ids[q], 0);
          }
          (void)sum;
        });
      } else {
        // Structural updates: add or retire zero-availability "special
        // offer" entries (exercises tree rebalancing under contention;
        // value 0 keeps the conservation invariant untouched).
        const std::uint64_t offer = kOfferBase + c.rng().below(64);
        const bool add = c.rng().chance(0.5);
        co_await c.run_tx([&]() -> Task<void> {
          if (add) {
            co_await w->tables_[which[0]].insert(c, offer, 0);
          } else {
            co_await w->tables_[which[0]].erase(c, offer);
          }
        });
      }
      co_await c.work(40);  // client think time
    }
  }

  GRBTree tables_[kTables];
  GRBTree customers_;
  Addr log_seq_ = 0;
  std::uint64_t nrelations_ = 0, ntx_per_thread_ = 0, initial_avail_ = 0;
  std::uint32_t threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_vacation() {
  return std::make_unique<VacationWorkload>();
}

}  // namespace asfsim
