// yada — Delaunay mesh refinement (STAMP). The paper EXCLUDES yada (and
// hmm) because "their transactions are extremely large and cannot fit into
// baseline ASF hardware" (§III footnote). This port exists to demonstrate
// that exclusion: each refinement transaction rewrites a large cavity of
// triangle records whose footprint overflows the 2-way L1's speculative
// capacity, so the run is dominated by capacity aborts resolved through the
// serializing software fallback. asfsim_fig ablation_capacity quantifies it.
//
// The mesh is modeled as a pool of triangle records (quality flag + three
// vertex ids + three neighbor links); a refinement transaction picks a
// "bad" triangle, walks a cavity of fixed radius, re-stamps every record in
// it, and marks the seed as refined. Records are deliberately strided one
// L1-set apart so a cavity cannot be cached speculatively — the defining
// yada behaviour, not an incidental one.
#include <vector>

#include "guest/garray.hpp"
#include "guest/gheap.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

class YadaWorkload final : public Workload {
 public:
  const char* name() const override { return "yada"; }
  const char* description() const override {
    return "Delaunay mesh refinement (overflows ASF capacity; excluded "
           "from the paper's evaluation)";
  }

  void setup(Machine& m, const WorkloadParams& p) override {
    ntriangles_ = 3 * kSetStride;  // three L1-way-conflicting banks
    nrefinements_ = p.scaled(24);
    threads_ = p.threads;
    nrefinements_ -= nrefinements_ % threads_;
    if (nrefinements_ == 0) nrefinements_ = threads_;

    // One 8-byte quality stamp per triangle, placed so that consecutive
    // cavity members alias the same 2-way L1 set (set stride = 32KB).
    quality_ = GArray64::alloc(m.galloc(), ntriangles_, kLineBytes,
                               "yada.quality");
    for (std::uint64_t i = 0; i < ntriangles_; ++i) quality_.poke(m, i, 1);
    refined_ = m.galloc().alloc(64, 64,
                                m.galloc().register_site("yada.refined", 64));
    m.poke(refined_, 8, 0);

    // Priority work queue (the STAMP yada work heap): seeds ordered by
    // badness; workers pull transactionally.
    work_ = GHeap::create(m, nrefinements_ + 1);
    for (std::uint64_t r = 0; r < nrefinements_; ++r) {
      work_.host_push(m, (r * 37) % kSetStride);
    }

    for (CoreId t = 0; t < threads_; ++t) {
      m.spawn(t, worker(m.ctx(t), this));
    }
  }

  std::string validate(Machine& m) override {
    if (work_.host_size(m) != 0) return "yada: work left in the heap";
    if (m.peek(refined_, 8) != nrefinements_) {
      return "yada: refined " + std::to_string(m.peek(refined_, 8)) +
             " cavities, expected " + std::to_string(nrefinements_);
    }
    // Every cavity member was re-stamped exactly once per covering cavity:
    // total stamp mass must match.
    std::uint64_t mass = 0;
    for (std::uint64_t i = 0; i < ntriangles_; ++i) {
      mass += quality_.peek(m, i) - 1;
    }
    if (mass != nrefinements_ * kCavity) {
      return "yada: stamp mass " + std::to_string(mass) + " != " +
             std::to_string(nrefinements_ * kCavity);
    }
    return {};
  }

 private:
  // A cavity touches kCavity records, one per L1-set-aliasing bank — three
  // speculative lines in one 2-way set can never be held simultaneously.
  static constexpr std::uint32_t kCavity = 3;
  static constexpr std::uint64_t kSetStride = 4096;  // elements per L1 way (512 lines x 8 cells)

  static Task<void> worker(GuestCtx& c, YadaWorkload* w) {
    for (;;) {
      // Pull the worst triangle off the shared priority work queue.
      std::uint64_t seed = GHeap::kEmpty;
      co_await c.run_tx([&]() -> Task<void> {
        seed = co_await w->work_.pop(c);
      });
      if (seed == GHeap::kEmpty) break;
      co_await c.run_tx([&]() -> Task<void> {
        // Re-triangulate the cavity: every member aliases the same L1 set.
        for (std::uint32_t k = 0; k < kCavity; ++k) {
          const std::uint64_t tri = seed + k * kSetStride;
          const std::uint64_t q = co_await w->quality_.get(c, tri);
          co_await c.work(25);  // circumcircle checks
          co_await w->quality_.set(c, tri, q + 1);
        }
        const std::uint64_t n = co_await c.load_u64(w->refined_);
        co_await c.store_u64(w->refined_, n + 1);
      });
      co_await c.work(60);  // work-queue management
    }
  }

  GArray64 quality_;
  GHeap work_;
  Addr refined_ = 0;
  std::uint64_t ntriangles_ = 0, nrefinements_ = 0;
  std::uint32_t threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_yada() { return std::make_unique<YadaWorkload>(); }

}  // namespace asfsim
