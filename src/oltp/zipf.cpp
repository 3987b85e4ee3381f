#include "oltp/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace asfsim {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfGenerator: n must be in [1, 2^32)");
  }
  if (!(theta >= 0.0)) {
    throw std::invalid_argument("ZipfGenerator: theta must be >= 0");
  }
  cdf_.resize(n);
  // Fixed left-to-right accumulation order: the table (and therefore every
  // draw) is a pure function of (n, theta) on a given host.
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += theta == 0.0
               ? 1.0
               : std::pow(static_cast<double>(k + 1), -theta);
    cdf_[k] = acc;
  }
  zetan_ = acc;
  for (double& c : cdf_) c /= zetan_;
  cdf_.back() = 1.0;  // guard against accumulated rounding

  // Search-hint index: for u in bucket b (u-range [b/B, (b+1)/B)), the
  // answer upper_bound(cdf_, u) is bracketed by the answers at the bucket
  // edges, because upper_bound is monotone in u. The edges ascend, so one
  // merge pass over the sorted CDF computes every edge answer in O(n + B).
  std::size_t buckets = 1024;
  while (buckets < n / 4) buckets *= 2;
  hint_.resize(buckets + 1);
  std::uint64_t k = 0;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(buckets);
    while (k < n && cdf_[k] <= edge) ++k;
    hint_[b] = static_cast<std::uint32_t>(k);
  }
}

std::uint64_t ZipfGenerator::key_for(double u) const {
  const std::size_t buckets = hint_buckets();
  auto b = static_cast<std::size_t>(u * static_cast<double>(buckets));
  if (b >= buckets) b = buckets - 1;  // u < 1, but stay safe
  const std::uint64_t lo = hint_[b];
  // The bracket is inclusive of hint_[b + 1] (u may equal values just below
  // the edge whose upper_bound IS the edge answer); clamp to n_ for the
  // final bucket where the edge answer is end().
  const std::uint64_t hi = std::min<std::uint64_t>(hint_[b + 1] + 1, n_);
  const auto it =
      std::upper_bound(cdf_.begin() + static_cast<std::ptrdiff_t>(lo),
                       cdf_.begin() + static_cast<std::ptrdiff_t>(hi), u);
  // u < 1.0 == cdf_.back(), so the bracketed search never returns its end.
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

double ZipfGenerator::pmf(std::uint64_t k) const {
  if (k >= n_) return 0.0;
  const double w = theta_ == 0.0
                       ? 1.0
                       : std::pow(static_cast<double>(k + 1), -theta_);
  return w / zetan_;
}

}  // namespace asfsim
