// Fault-injection and protocol-mutation configuration (docs/robustness.md).
//
// FaultConfig is embedded in SimConfig, so every knob in its field table
// (below) participates in the runner's canonical JobSpec serialization: a
// faulted run can never alias a clean run in the result cache. The same
// table defines the --fault-* / --mutate flags. Injection itself
// (FaultPlan) is derived from the simulation seed, so fault runs are
// byte-deterministic across --jobs values and repeat runs.
//
// Mutations are different from faults: a fault is a legal-but-unlucky event
// (real ASF hardware aborts spuriously and under capacity pressure), while
// a mutation deliberately breaks one documented rule of the sub-block
// protocol so the chaos harness can prove the correctness oracles would
// catch a real implementation bug of that shape.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace asfsim {

/// One deliberately-broken sub-block protocol rule (--mutate=<name>).
enum class ProtocolMutation : std::uint8_t {
  kNone = 0,
  /// Discard piggy-backed S-WR masks instead of marking the requester's
  /// sub-blocks Dirty (breaks paper §IV-C / Fig 7).
  kDropDirtySubblock,
  /// Drop an invalidated line's speculative info instead of retaining it
  /// (breaks paper §IV-B; the metadata is erased too, so only the
  /// behavioral oracles can see the breakage).
  kForgetInvalidatedSpecinfo,
  /// Record speculative writes in the architectural sub-block bits but not
  /// in the byte-exact write mask (a metadata-bookkeeping bug).
  kSkipWrittenMask,
  /// Disable the commit-time reader-validation net, reopening the
  /// silent-store window that retention creates (DESIGN.md §6.5).
  kSkipCommitValidation,
  /// Record the architectural sub-block SPEC/WR bits under a rotated
  /// sub-block index (classic off-by-one in index math) while the
  /// byte-exact masks stay correct — the mask/bit-agreement invariant
  /// kills it.
  kWrongSubblockIndexMath,
  /// Apply the PREVIOUS fill response's piggy-backed S-WR set instead of
  /// the one that just arrived (a buffered-response reuse bug) — the
  /// piggyback-coverage invariant kills it.
  kStalePiggybackMask,
  /// The TM library's exponential backoff silently returns a zero wait,
  /// deleting the paper §V-A livelock defense. Both correctness oracles
  /// stay green (requester-wins + the fallback still serialize), so only
  /// the backoff-progressivity policy oracle can see it.
  kBackoffNeverSleeps,
  /// The commit write-back silently drops the highest-addressed overlay
  /// line's data: readers are validated and the transaction reports
  /// success, but one line's speculative values never reach memory — a
  /// lost update on multi-line commits (e.g. OLTP read-modify-writes).
  /// Killed by the strict-serializability replay oracle and by the value
  /// conservation checks of the workloads themselves.
  kLostUpdateCommit,
  /// The timestamp contention policy's priority input ignores karma and
  /// uses the ATTEMPT start instead of the logical transaction start, so
  /// every retry looks newborn and keeps losing to fresher rivals — the
  /// starvation oracle (consecutive aborts past the policy's stated bound)
  /// kills it. Both correctness oracles stay green: losing fairly forever
  /// is still serializable.
  kUnfairKarmaReset,
  /// The serialize fallback path never releases the fallback lock after
  /// the irrevocable body completes, wedging every other core behind the
  /// subscription spin — the run watchdog fires and the chaos harness
  /// counts the failed run as a kill.
  kFallbackLockLeak,
  /// Acquiring the fallback lock pokes the lock word directly in backing
  /// store, skipping the coherence probe that dooms subscribed
  /// transactions — in-flight transactions race the irrevocable body and
  /// the strict-serializability replay oracle kills it.
  kSerializeSkipsValidation,
};

[[nodiscard]] const char* to_string(ProtocolMutation m);

/// Parse a --mutate name ("drop-dirty-subblock", ...). Returns false for
/// unknown names; "none" and "" map to kNone.
[[nodiscard]] bool parse_mutation(std::string_view name, ProtocolMutation& out);

struct FaultConfig {
  /// Per-transactional-access probability of a spurious abort (the access
  /// dooms its own transaction for no architectural reason).
  double spurious_abort_rate = 0.0;
  /// Per-commit probability that the commit attempt fails and the
  /// transaction aborts instead (late interference, e.g. an interrupt).
  double commit_abort_rate = 0.0;
  /// Per-transactional-access probability of a capacity-pressure event:
  /// one of the requester's own speculative lines is evicted, which ASF
  /// surfaces as a capacity abort.
  double evict_rate = 0.0;
  /// Max extra cycles added to each probe broadcast (uniform in [0, n]).
  Cycle probe_jitter = 0;
  /// Max extra cycles added to each scheduled resume (uniform in [0, n]).
  Cycle sched_jitter = 0;
  /// Protocol mutation, if any (chaos harness; never a "fault").
  ProtocolMutation mutation = ProtocolMutation::kNone;

  /// Any probabilistic/timing injection enabled (mutations excluded)?
  [[nodiscard]] bool any_injection() const {
    return spurious_abort_rate > 0.0 || commit_abort_rate > 0.0 ||
           evict_rate > 0.0 || probe_jitter != 0 || sched_jitter != 0;
  }
  /// Anything at all (injection or mutation) deviating from a clean run?
  [[nodiscard]] bool enabled() const {
    return any_injection() || mutation != ProtocolMutation::kNone;
  }
};

template <>
struct FieldTable<FaultConfig> {
  static constexpr auto fields = std::tuple{
      field(&FaultConfig::spurious_abort_rate,
            {.key = "spurious_abort_rate", .flag = "--fault-spurious",
             .lo = 0.0, .hi = 1.0}),
      field(&FaultConfig::commit_abort_rate,
            {.key = "commit_abort_rate", .flag = "--fault-commit", .lo = 0.0,
             .hi = 1.0}),
      field(&FaultConfig::evict_rate,
            {.key = "evict_rate", .flag = "--fault-evict", .lo = 0.0,
             .hi = 1.0}),
      field(&FaultConfig::probe_jitter,
            {.key = "probe_jitter", .flag = "--fault-probe-jitter"}),
      field(&FaultConfig::sched_jitter,
            {.key = "sched_jitter", .flag = "--fault-sched-jitter"}),
      field(&FaultConfig::mutation, {.key = "mutation", .flag = "--mutate"}),
  };
};
static_assert(table_complete<FaultConfig>(),
              "every FaultConfig member needs an entry");

}  // namespace asfsim
