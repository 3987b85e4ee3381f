#include "sim/config.hpp"

#include <bit>
#include <tuple>

#include "mem/addr.hpp"
#include "mem/cache.hpp"

namespace asfsim {

namespace {

std::string check_level(const char* name, const CacheLevelConfig& c,
                        std::uint32_t min_sets) {
  if (c.size_bytes == 0) return std::string(name) + ": size_bytes must be > 0";
  if (c.ways == 0) return std::string(name) + ": ways must be > 0";
  // Byte masks, sub-block math and the tag layouts assume the global line.
  if (c.line_bytes != kLineBytes) {
    return std::string(name) + ": line_bytes must be " +
           std::to_string(kLineBytes);
  }
  if (c.size_bytes % (c.line_bytes * c.ways) != 0) {
    return std::string(name) +
           ": size_bytes must be a multiple of line_bytes * ways";
  }
  if (!std::has_single_bit(c.num_sets())) {
    return std::string(name) + ": set count " + std::to_string(c.num_sets()) +
           " must be a power of two";
  }
  if (c.num_sets() < min_sets) {
    return std::string(name) + ": set count " + std::to_string(c.num_sets()) +
           " must be >= " + std::to_string(min_sets) +
           " (a 32-bit tag must hold any guest line)";
  }
  return {};
}

std::string check_rate(const char* name, double rate) {
  if (rate < 0.0 || rate > 1.0) {
    return std::string("fault.") + name + " must be in [0, 1]";
  }
  return {};
}

}  // namespace

std::string SimConfig::validate() const {
  if (ncores == 0) return "ncores must be > 0";
  for (const auto& [name, level, min_sets] :
       {std::tuple<const char*, const CacheLevelConfig*, std::uint32_t>{
            "l1", &l1, 1},
        {"l2", &l2, RecencyTags::kMinSets},
        {"l3", &l3, RecencyTags::kMinSets}}) {
    if (std::string err = check_level(name, *level, min_sets); !err.empty()) {
      return err;
    }
  }
  if (backoff_base == 0) {
    return "backoff_base must be > 0 (zero backoff livelocks under "
           "requester-wins)";
  }
  if (max_tx_retries != 0 && max_capacity_aborts == 0) {
    return "max_capacity_aborts must be > 0 when the fallback is enabled";
  }
  // Contention-management contradictions: a knob combination whose stated
  // bound could never trip is rejected up front rather than silently run
  // (docs/contention.md §5).
  if (cm.max_retries == 0) {
    return cm.policy == CmPolicyKind::kSerialize
               ? "cm.max_retries must be > 0: the serialize fallback could "
                 "never engage"
               : "cm.max_retries must be > 0 (--cm-max-retries 0 makes the "
                 "serialize threshold unreachable; pick a policy bound >= 1)";
  }
  if (cm.policy == CmPolicyKind::kSerialize && max_capacity_aborts == 0) {
    return "max_capacity_aborts must be > 0 under --cm-policy serialize "
           "(the policy re-enables the fallback path)";
  }
  if (cm.policy == CmPolicyKind::kSerialize && watchdog_cycles != 0) {
    // Floor on the time the serialize path needs to produce its first
    // commit: max_retries aborted attempts, each costing at least the
    // abort penalty plus the minimum backoff sleep.
    const Cycle floor =
        static_cast<Cycle>(cm.max_retries + 1) * (abort_latency + backoff_base);
    if (watchdog_cycles < floor) {
      return "watchdog_cycles (" + std::to_string(watchdog_cycles) +
             ") is smaller than the serialize fallback could ever need (" +
             std::to_string(floor) +
             " = (cm.max_retries+1)*(abort_latency+backoff_base)); the "
             "watchdog would fire before the guaranteed-progress path engages";
    }
  }
  if (enable_ats && (ats_alpha <= 0.0 || ats_alpha > 1.0)) {
    return "ats_alpha must be in (0, 1]";
  }
  for (const auto& [name, rate] :
       {std::pair<const char*, double>{"spurious_abort_rate",
                                       fault.spurious_abort_rate},
        {"commit_abort_rate", fault.commit_abort_rate},
        {"evict_rate", fault.evict_rate}}) {
    if (std::string err = check_rate(name, rate); !err.empty()) return err;
  }
  return {};
}

}  // namespace asfsim
