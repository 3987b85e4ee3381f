// genome — gene sequencing (STAMP).
//
// Phase 1 deduplicates randomly-sampled genome segments into a shared hash
// map (insert-heavy: concurrent bucket-head writes make incoming reads hit
// speculatively-written lines, the paper's RAW-dominant signature for
// genome, Fig 2). Phase 2 links unique segments whose (L-1)-overlap matches,
// rebuilding the sequence order; link cells are unpadded 8-byte slots.
// Phase transitions give genome its bursty false-conflict timeline (Fig 3).
#include <algorithm>
#include <string>
#include <vector>

#include "guest/barrier.hpp"
#include "guest/garray.hpp"
#include "guest/ghashmap.hpp"
#include "workloads/workload.hpp"

namespace asfsim {
namespace {

class GenomeWorkload final : public Workload {
 public:
  const char* name() const override { return "genome"; }
  const char* description() const override { return "gene sequencing"; }

  void setup(Machine& m, const WorkloadParams& p) override {
    glen_ = p.scaled(1536);
    threads_ = p.threads;

    // Random genome: most sampled segments are unique, so the dedup phase is
    // insert-heavy. Frequent bucket-head writes plus short chains are what
    // make genome RAW-dominant (readers hit freshly-written heads while the
    // writer is still speculative) rather than WAR-dominant (paper Fig 2).
    Rng rng(p.seed * 13 + 3);
    genome_.resize(glen_);
    for (auto& b : genome_) b = static_cast<std::uint8_t>(rng.below(4));

    nsegments_ = glen_ - kSegLen + 1;
    nsegments_ -= nsegments_ % threads_;

    // Sampled segment start positions, shuffled across threads (each start
    // appears once; duplicates arise from repeated substrings).
    starts_.resize(nsegments_);
    for (std::uint64_t i = 0; i < nsegments_; ++i) starts_[i] = i;
    for (std::uint64_t i = nsegments_; i > 1; --i) {
      std::swap(starts_[i - 1], starts_[rng.below(i)]);
    }

    segments_ = GHashMap::create(m, 768);
    nunique_ = m.galloc().alloc(
        64, 64, m.galloc().register_site("genome.nunique", 64));
    m.poke(nunique_, 8, 0);
    successor_ = GArray64::alloc(m.galloc(), glen_ + 1, 8, "genome.successor");
    for (std::uint64_t i = 0; i <= glen_; ++i) successor_.poke(m, i, kNoLink);

    // Host-side expectations for validation.
    std::vector<std::uint64_t> codes(nsegments_);
    for (std::uint64_t i = 0; i < nsegments_; ++i) {
      codes[i] = encode(genome_.data() + i);
    }
    std::sort(codes.begin(), codes.end());
    expected_unique_ = static_cast<std::uint64_t>(
        std::unique(codes.begin(), codes.end()) - codes.begin());

    barrier_ = std::make_unique<GuestBarrier>(m.kernel(), threads_);
    const std::uint64_t per = nsegments_ / threads_;
    for (CoreId t = 0; t < threads_; ++t) {
      m.spawn(t, worker(m.ctx(t), this, t * per, (t + 1) * per));
    }
  }

  std::string validate(Machine& m) override {
    const std::uint64_t got = segments_.host_size(m);
    if (got != expected_unique_) {
      return "genome: deduplicated " + std::to_string(got) + " segments, " +
             "expected " + std::to_string(expected_unique_);
    }
    // Every recorded successor link must be consistent with an (L-1)-overlap.
    for (std::uint64_t pos = 0; pos + kSegLen <= glen_; ++pos) {
      const std::uint64_t next = successor_.peek(m, pos);
      if (next == kNoLink) continue;
      for (std::uint32_t i = 0; i + 1 < kSegLen; ++i) {
        if (genome_[pos + 1 + i] != genome_[next + i]) {
          return "genome: bad overlap link at position " + std::to_string(pos);
        }
      }
    }
    return {};
  }

 private:
  static constexpr std::uint32_t kSegLen = 12;  // 2-bit bases -> 24-bit key
  static constexpr std::uint64_t kNoLink = ~std::uint64_t{0};

  [[nodiscard]] std::uint64_t encode(const std::uint8_t* bases) const {
    std::uint64_t k = 1;  // leading 1 so position-0 values stay distinct
    for (std::uint32_t i = 0; i < kSegLen; ++i) k = (k << 2) | bases[i];
    return k;
  }

  static Task<void> worker(GuestCtx& c, GenomeWorkload* w, std::uint64_t lo,
                           std::uint64_t hi) {
    // Phase 1: segment deduplication into the shared hash map.
    for (std::uint64_t i = lo; i < hi; ++i) {
      const std::uint64_t pos = w->starts_[i];
      const std::uint64_t key = w->encode(w->genome_.data() + pos);
      const bool counted = c.rng().chance(0.12);
      co_await c.run_tx([&]() -> Task<void> {
        std::uint64_t n = 0;
        if (counted) n = co_await c.load_u64(w->nunique_);
        const bool inserted = co_await w->segments_.insert(c, key, pos);
        if (inserted) {
          // New segments pay link-table construction inside the
          // transaction, which keeps the freshly-written bucket line
          // speculative while other threads' dedup walks read it
          // (RAW false conflicts, Fig 2).
          co_await c.work(500);
        }
        // Lock-free-style re-validation: re-read the bucket chain to check
        // for a concurrent insertion of the same key. This late read is
        // what usually lands on a freshly speculatively-written bucket
        // head (RAW, the dominant genome conflict type in Fig 2).
        const bool present = co_await w->segments_.contains(c, key);
        if (!present) co_await c.abort_tx();  // impossible; keeps the read live
        if (counted) co_await c.store_u64(w->nunique_, n + 1);
      });
      co_await c.work(kSegLen);  // encoding cost
    }

    co_await w->barrier_->arrive_and_wait(c);

    // Phase 2: overlap matching — look up each segment's 1-shifted suffix
    // and record the successor position.
    for (std::uint64_t i = lo; i < hi; ++i) {
      const std::uint64_t pos = w->starts_[i];
      if (pos + 1 + kSegLen > w->glen_) continue;
      const std::uint64_t next_key = w->encode(w->genome_.data() + pos + 1);
      co_await c.run_tx([&]() -> Task<void> {
        const std::uint64_t next =
            co_await w->segments_.find(c, next_key, kNoLink);
        co_await w->successor_.set(c, pos, next);
      });
      co_await c.work(kSegLen);
    }
  }

  GHashMap segments_;
  GArray64 successor_;
  Addr nunique_ = 0;
  std::vector<std::uint8_t> genome_;
  std::vector<std::uint64_t> starts_;
  std::unique_ptr<GuestBarrier> barrier_;
  std::uint64_t glen_ = 0, nsegments_ = 0, expected_unique_ = 0;
  std::uint32_t threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_genome() {
  return std::make_unique<GenomeWorkload>();
}

}  // namespace asfsim
