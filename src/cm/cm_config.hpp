// Contention-management configuration (docs/contention.md).
//
// Conflict *detection* (which detector, sub-block granularity) and conflict
// *resolution* (who aborts) are orthogonal axes. This struct keys the
// resolution side: which ContentionPolicy the runtime consults when a
// detector reports a conflict, plus the knobs the policies share. It lives
// below sim/ so both SimConfig and the policy objects can include it without
// a cycle; SimConfig embeds it as `SimConfig::cm`, and the jobspec hash
// (runner cache key) and the --cm-* flags walk its field table below, whose
// static_assert makes an unlisted field a compile error.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/fields.hpp"

namespace asfsim {

enum class CmPolicyKind : std::uint8_t {
  // Hard-wired historical behavior: the requesting core's access always
  // dooms the conflicting transaction. Bit-identical to the pre-cm tree
  // (kernel-identity FNV goldens pin this).
  kRequesterWins = 0,
  // Polite: a *transactional* requester aborts itself and retries with
  // backoff, leaving the victim running. Non-transactional requesters
  // still win (they cannot abort).
  kPolite,
  // Oldest-wins by logical-transaction start cycle, with karma carried
  // across retries: every abort a core suffers ages its priority by
  // `karma` cycles, so a repeatedly-victimized transaction eventually
  // outranks any newcomer. Ties resolve requester-wins.
  kTimestamp,
  // Requester-wins resolution plus a guaranteed-termination floor: a
  // transaction that aborts more than `max_retries` times acquires the
  // guest fallback lock and runs irrevocably — even when the classic
  // fallback is disabled (SimConfig::max_tx_retries == 0).
  kSerialize,
};

[[nodiscard]] const char* to_string(CmPolicyKind k);

/// Parses a policy name ("requester-wins", "polite", "timestamp",
/// "serialize"). Returns false on unknown names.
[[nodiscard]] bool parse_cm_policy(std::string_view name, CmPolicyKind& out);

struct CmConfig {
  CmPolicyKind policy = CmPolicyKind::kRequesterWins;
  // Serialize threshold: retries of one logical transaction before the
  // kSerialize policy escalates to the fallback lock. Also the stated
  // consecutive-abort bound the chaos starvation oracle audits.
  // Must be > 0 (SimConfig::validate()).
  std::uint32_t max_retries = 8;
  // Karma weight for kTimestamp: cycles of priority age credited per
  // suffered abort (saturating).
  std::uint32_t karma = 64;
  // Opt-in starvation/fairness accounting: stats-blob v5 section +
  // kPolicy trace events even under requester-wins. Off by default so
  // default-config blobs/traces stay byte-identical to the pre-cm tree.
  bool stats = false;

  /// True when the cm subsystem changes anything observable (non-default
  /// policy or opt-in accounting) — gates trace emission.
  [[nodiscard]] bool active() const {
    return policy != CmPolicyKind::kRequesterWins || stats;
  }
};

template <>
struct FieldTable<CmConfig> {
  static constexpr auto fields = std::tuple{
      field(&CmConfig::policy, {.key = "policy", .flag = "--cm-policy"}),
      field(&CmConfig::max_retries,
            {.key = "max_retries", .flag = "--cm-max-retries"}),
      field(&CmConfig::karma, {.key = "karma", .flag = "--cm-karma"}),
      field(&CmConfig::stats, {.key = "stats", .flag = "--cm-stats"}),
  };
};
static_assert(table_complete<CmConfig>(),
              "every CmConfig member needs an entry");

}  // namespace asfsim
