// Adaptive transaction scheduling (ATS), after Yoo & Lee (SPAA'08) — the
// "active transactional scheduling" optimization family the paper's
// introduction positions ASF against.
//
// Each core tracks a contention intensity CI as an exponential moving
// average of its transaction outcomes (1 = aborted, 0 = committed). When CI
// exceeds a threshold, the core's next transactions are dispatched through
// a central serializing queue instead of running wild — trading concurrency
// for an end to abort storms. The scheduler is runtime metadata (as in the
// original proposal), so it lives host-side; the *waiting* is simulated.
//
// This is an optional extension (SimConfig::enable_ats); `asfsim_fig
// ablation_ats` measures how it composes with sub-blocking.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace asfsim {

class AdaptiveScheduler {
 public:
  AdaptiveScheduler(std::uint32_t ncores, double alpha, double threshold)
      : ci_(ncores, 0.0), alpha_(alpha), threshold_(threshold) {}

  /// Record a transaction outcome for `core` (true = aborted).
  void on_tx_end(CoreId core, bool aborted) {
    ci_[core] = alpha_ * (aborted ? 1.0 : 0.0) + (1.0 - alpha_) * ci_[core];
  }

  /// Must `core`'s next transaction go through the serializing dispatcher?
  [[nodiscard]] bool should_serialize(CoreId core) const {
    return ci_[core] > threshold_;
  }

  /// Try to become the single dispatched transaction. Fails while another
  /// core holds the slot; callers wait (in simulated time) and retry.
  [[nodiscard]] bool try_acquire(CoreId core) {
    if (holder_ != kInvalidCore && holder_ != core) return false;
    holder_ = core;
    return true;
  }

  void release(CoreId core) {
    if (holder_ == core) holder_ = kInvalidCore;
  }

  [[nodiscard]] double contention(CoreId core) const { return ci_[core]; }
  [[nodiscard]] CoreId holder() const { return holder_; }

 private:
  std::vector<double> ci_;
  double alpha_;
  double threshold_;
  CoreId holder_ = kInvalidCore;
};

}  // namespace asfsim
