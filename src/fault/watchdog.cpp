#include "fault/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "guest/machine.hpp"

namespace asfsim {

std::string livelock_report(Machine& m) {
  const Stats& st = m.stats();
  AsfRuntime& rt = m.runtime();
  std::string out = "=== livelock diagnostic ===\n";
  char buf[256];

  std::snprintf(buf, sizeof(buf),
                "cycle %llu: %llu commits, %llu aborts, %llu fallback runs, "
                "%llu attempts\n",
                static_cast<unsigned long long>(m.kernel().now()),
                static_cast<unsigned long long>(st.tx_commits),
                static_cast<unsigned long long>(st.tx_aborts),
                static_cast<unsigned long long>(st.fallback_runs),
                static_cast<unsigned long long>(st.tx_attempts));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "aborts by cause: %llu conflict, %llu capacity, %llu lock-wait, "
      "%llu user\n",
      static_cast<unsigned long long>(
          st.aborts_by_cause[static_cast<int>(AbortCause::kConflict)]),
      static_cast<unsigned long long>(
          st.aborts_by_cause[static_cast<int>(AbortCause::kCapacity)]),
      static_cast<unsigned long long>(
          st.aborts_by_cause[static_cast<int>(AbortCause::kLockWait)]),
      static_cast<unsigned long long>(
          st.aborts_by_cause[static_cast<int>(AbortCause::kUser)]));
  out += buf;

  for (CoreId c = 0; c < m.config().ncores; ++c) {
    std::snprintf(
        buf, sizeof(buf),
        "core %u: %s%s retries=%u cause=%s overlay_lines=%llu "
        "spec_lines=%llu\n",
        static_cast<unsigned>(c), rt.active(c) ? "in-tx" : "idle",
        rt.doomed(c) ? " (doomed)" : "", rt.retries(c),
        to_string(rt.doom_cause(c)),
        static_cast<unsigned long long>(rt.overlay_lines(c)),
        static_cast<unsigned long long>(m.mem().spec_lines(c)));
    out += buf;
  }

  // Hottest false-conflict lines: where the abort traffic concentrates.
  std::vector<std::pair<std::uint64_t, Addr>> hot;
  hot.reserve(st.false_by_line.size());
  for (const auto& [line, n] : st.false_by_line) hot.emplace_back(n, line);
  std::sort(hot.rbegin(), hot.rend());
  if (!hot.empty()) {
    out += "hot false-conflict lines:";
    const std::size_t top = std::min<std::size_t>(hot.size(), 5);
    for (std::size_t i = 0; i < top; ++i) {
      std::snprintf(buf, sizeof(buf), " 0x%llx(%llu)",
                    static_cast<unsigned long long>(hot[i].second),
                    static_cast<unsigned long long>(hot[i].first));
      out += buf;
    }
    out += "\n";
  }

  if (FaultPlan* plan = m.fault_plan()) {
    out += plan->summary();
    out += "\n";
  }
  out += "=== end livelock diagnostic ===";
  return out;
}

}  // namespace asfsim
