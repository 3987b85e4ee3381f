// Deterministic zipf/uniform key generator for the OLTP workload family.
//
// Sampling inverts an explicitly tabulated CDF, so the generator is exact
// for ANY theta >= 0 (the popular Gray et al. rejection trick is only valid
// for theta < 1) and the analytic pmf used by the chi-squared unit tests is
// the very distribution being sampled. A bucketed hint table (about one
// bucket per four keys) narrows each inversion to a few CDF entries, so a
// draw from a 2^18-key table costs a few host cache misses, not a full
// binary search over a 2 MB table. One next_double() per draw keeps the
// per-core Rng streams in lockstep with the rest of the workload's
// decisions, so runs stay byte-deterministic for any --jobs value.
//
// Rank k is used directly as the key: the hottest records are adjacent in
// the table, which concentrates skewed traffic on shared cache lines — the
// false-sharing regime the sub-block detectors exist to disambiguate.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace asfsim {

class ZipfGenerator {
 public:
  /// P(key == k) proportional to 1 / (k+1)^theta over [0, n). theta == 0
  /// degenerates to the uniform distribution. n must be in [1, 2^32).
  ZipfGenerator(std::uint64_t n, double theta);

  /// Draw one key in [0, n). Consumes exactly one rng.next_double().
  [[nodiscard]] std::uint64_t next(Rng& rng) const {
    return key_for(rng.next_double());
  }

  /// The key next() returns for the uniform draw u in [0, 1): exactly
  /// upper_bound(cdf, u), found through the bucket hints.
  [[nodiscard]] std::uint64_t key_for(double u) const;

  /// Analytic probability mass of key k (the distribution next() samples).
  [[nodiscard]] double pmf(std::uint64_t k) const;

  /// The tabulated CDF: cdf()[k] = P(key <= k), back() == 1.0.
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }
  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] double theta() const { return theta_; }

  /// Number B of equal-width u-buckets in the search-hint index: the
  /// smallest power of two >= max(1024, n / 4). Each draw first maps u to a
  /// bucket, then binary-searches only between that bucket's precomputed
  /// CDF bounds — identical result to searching the whole table, but a draw
  /// touches a handful of host cache lines even in the flat tail of a large
  /// table (docs/performance.md). A power of two keeps u * B and b / B exact
  /// in double arithmetic, so the bucket bracket is exact too.
  [[nodiscard]] std::size_t hint_buckets() const { return hint_.size() - 1; }

 private:
  std::uint64_t n_ = 1;
  double theta_ = 0.0;
  double zetan_ = 1.0;        // sum over 1/(k+1)^theta, the normalizer
  std::vector<double> cdf_;   // cdf_[k] = P(key <= k); back() == 1.0
  // hint_[b] = upper_bound(cdf_, b/B) for b in [0, B]. Keys fit uint32_t
  // (n < 2^32 is checked; --oltp-records is validated to <= 2^20).
  std::vector<std::uint32_t> hint_;
};

}  // namespace asfsim
