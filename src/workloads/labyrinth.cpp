// labyrinth — maze routing (STAMP, Lee's algorithm).
//
// Each worker routes point-to-point paths on a shared grid of unpadded
// 32-bit cells. Planning uses a non-transactional snapshot (STAMP's
// grid-copy trick); the transaction re-validates every planned cell and
// calls a user abort when a concurrent route claimed one — so, as in the
// paper, most of labyrinth's aborts are user aborts and its absolute
// conflict count is tiny (making Fig 9's percentage noisy).
#include <algorithm>
#include <queue>
#include <vector>

#include "guest/garray.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

class LabyrinthWorkload final : public Workload {
 public:
  const char* name() const override { return "labyrinth"; }
  const char* description() const override { return "maze routing"; }

  void setup(Machine& m, const WorkloadParams& p) override {
    side_ = 24 + static_cast<std::uint32_t>(8 * p.scale);
    nroutes_ = p.scaled(48);
    threads_ = p.threads;
    // Whole routes per thread, at least one each (tiny scales would
    // otherwise round down to no routes at all).
    nroutes_ =
        std::max<std::uint64_t>(threads_, nroutes_ - nroutes_ % threads_);

    grid_ = GArray32::alloc(m.galloc(), side_ * side_, 4, "labyrinth.grid");
    for (std::uint64_t i = 0; i < side_ * side_; ++i) grid_.poke(m, i, 0);
    routed_ = m.galloc().alloc(
        64, 64, m.galloc().register_site("labyrinth.routed", 64));
    m.poke(routed_, 8, 0);

    // Endpoints: distinct random cells, reserved up front so routes only
    // compete for intermediate cells.
    Rng rng(p.seed * 211 + 17);
    endpoints_.clear();
    std::vector<bool> used(side_ * side_, false);
    for (std::uint64_t r = 0; r < nroutes_; ++r) {
      std::uint32_t a, b;
      do {
        a = static_cast<std::uint32_t>(rng.below(side_ * side_));
      } while (used[a]);
      used[a] = true;
      do {
        b = static_cast<std::uint32_t>(rng.below(side_ * side_));
      } while (used[b]);
      used[b] = true;
      endpoints_.emplace_back(a, b);
    }

    machine_ = &m;
    const std::uint64_t per = nroutes_ / threads_;
    for (CoreId t = 0; t < threads_; ++t) {
      m.spawn(t, worker(m.ctx(t), this, t * per, (t + 1) * per));
    }
  }

  std::string validate(Machine& m) override {
    // Every routed path's cells must carry exactly its own id and form a
    // connected src->dst chain; unrouted routes must have left no marks.
    std::vector<std::vector<std::uint32_t>> cells_of(nroutes_ + 1);
    for (std::uint64_t i = 0; i < side_ * side_; ++i) {
      const std::uint64_t id = grid_.peek(m, i);
      if (id > nroutes_) return "labyrinth: cell with invalid route id";
      if (id != 0) cells_of[id].push_back(static_cast<std::uint32_t>(i));
    }
    std::uint64_t routed = 0;
    for (std::uint64_t r = 0; r < nroutes_; ++r) {
      auto& cells = cells_of[r + 1];
      if (cells.empty()) continue;
      ++routed;
      // Connectivity: BFS within the path's own cells from src to dst.
      const auto [src, dst] = endpoints_[r];
      if (std::find(cells.begin(), cells.end(), src) == cells.end() ||
          std::find(cells.begin(), cells.end(), dst) == cells.end()) {
        return "labyrinth: path " + std::to_string(r) + " misses an endpoint";
      }
      std::vector<bool> in(side_ * side_, false), seen(side_ * side_, false);
      for (const auto cell : cells) in[cell] = true;
      std::queue<std::uint32_t> q;
      q.push(src);
      seen[src] = true;
      while (!q.empty()) {
        const std::uint32_t cell = q.front();
        q.pop();
        for (const std::uint32_t nb : neighbors(cell)) {
          if (in[nb] && !seen[nb]) {
            seen[nb] = true;
            q.push(nb);
          }
        }
      }
      if (!seen[dst]) {
        return "labyrinth: path " + std::to_string(r) + " disconnected";
      }
    }
    if (routed != m.peek(routed_, 8)) {
      return "labyrinth: routed counter mismatch";
    }
    if (routed == 0) return "labyrinth: no route succeeded";
    return {};
  }

 private:
  [[nodiscard]] std::vector<std::uint32_t> neighbors(std::uint32_t cell) const {
    std::vector<std::uint32_t> out;
    const std::uint32_t x = cell % side_, y = cell / side_;
    if (x > 0) out.push_back(cell - 1);
    if (x + 1 < side_) out.push_back(cell + 1);
    if (y > 0) out.push_back(cell - side_);
    if (y + 1 < side_) out.push_back(cell + side_);
    return out;
  }

  /// Host-side BFS over the committed grid (models STAMP's private
  /// grid copy): shortest path src->dst through free cells (and the two
  /// endpoints). Empty when unreachable.
  [[nodiscard]] std::vector<std::uint32_t> plan(const Machine& m,
                                                std::uint32_t src,
                                                std::uint32_t dst) const {
    std::vector<std::int32_t> prev(side_ * side_, -1);
    std::queue<std::uint32_t> q;
    q.push(src);
    prev[src] = static_cast<std::int32_t>(src);
    while (!q.empty() && prev[dst] < 0) {
      const std::uint32_t cell = q.front();
      q.pop();
      for (const std::uint32_t nb : neighbors(cell)) {
        if (prev[nb] >= 0) continue;
        if (nb != dst && grid_.peek(m, nb) != 0) continue;
        prev[nb] = static_cast<std::int32_t>(cell);
        q.push(nb);
      }
    }
    std::vector<std::uint32_t> path;
    if (prev[dst] < 0) return path;
    for (std::uint32_t cur = dst;; cur = static_cast<std::uint32_t>(prev[cur])) {
      path.push_back(cur);
      if (cur == src) break;
    }
    return path;
  }

  static Task<void> worker(GuestCtx& c, LabyrinthWorkload* w, std::uint64_t lo,
                           std::uint64_t hi) {
    for (std::uint64_t r = lo; r < hi; ++r) {
      const auto [src, dst] = w->endpoints_[r];
      const std::uint64_t id = r + 1;
      for (std::uint32_t attempt = 0; attempt < 32; ++attempt) {
        // Plan on the committed grid (the non-transactional grid copy);
        // each attempt replans around newly-committed routes.
        const std::vector<std::uint32_t> path = w->plan(*w->machine_, src, dst);
        if (path.empty()) break;  // boxed in: give up on this route
        co_await c.work(4 * path.size());  // wavefront-expansion cost

        const bool committed = co_await c.try_tx([&]() -> Task<void> {
          // Validate-and-claim cell by cell: a concurrent route may have
          // taken planned cells since the (non-transactional) plan was made.
          for (const std::uint32_t cell : path) {
            const std::uint64_t v = co_await w->grid_.get(c, cell);
            if (v != 0 && v != id) {
              // STAMP's TM_RESTART on validation failure.
              co_await c.abort_tx();
            }
            co_await w->grid_.set(c, cell, id);
          }
          const std::uint64_t n = co_await c.load_u64(w->routed_);
          co_await c.store_u64(w->routed_, n + 1);
        });
        if (committed) break;
      }
    }
  }

  GArray32 grid_;
  Addr routed_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> endpoints_;
  Machine* machine_ = nullptr;
  std::uint32_t side_ = 0;
  std::uint64_t nroutes_ = 0;
  std::uint32_t threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_labyrinth() {
  return std::make_unique<LabyrinthWorkload>();
}

}  // namespace asfsim
