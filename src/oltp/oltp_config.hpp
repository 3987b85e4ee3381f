// OLTP/KV workload family configuration (docs/workloads.md, "The OLTP/KV
// family").
//
// OltpConfig is embedded in WorkloadParams, so every knob reaches the
// workload through the normal setup() plumbing AND participates in the
// runner's canonical JobSpec serialization (runner/job_spec.cpp walks the
// field table below, whose static_assert makes an unlisted knob a compile
// error): two OLTP runs differing in any knob can never alias in the result
// cache. The same table defines the --oltp-* flags.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/fields.hpp"

namespace asfsim {

/// YCSB-style operation-mix preset (--oltp-mix a..f). kCustom uses the
/// free-form ratio knobs verbatim; the letter presets override them.
/// Adaptation note: the table is fixed-size, so YCSB's inserts (mixes D/E)
/// are modeled as updates; D's "latest" key distribution is available via
/// the hot_window knob (--oltp-hot-window) — documented in
/// docs/workloads.md.
enum class OltpMix : std::uint8_t {
  kCustom = 0,
  kA,  // 50% read / 50% update        (update heavy)
  kB,  // 95% read /  5% update        (read mostly)
  kC,  // 100% read                    (read only)
  kD,  // 95% read /  5% update        (read latest; insert -> update)
  kE,  // 95% scan /  5% update        (short ranges; insert -> update)
  kF,  // 50% read / 50% read-modify-write
};

[[nodiscard]] const char* to_string(OltpMix m);

/// Parse an --oltp-mix value ("a".."f", "custom"). Returns false for
/// unknown names; "" maps to kCustom.
[[nodiscard]] bool parse_oltp_mix(std::string_view name, OltpMix& out);

struct OltpConfig {
  /// Key space: number of fixed-size records in the table.
  std::uint64_t records = 1024;
  /// Payload bytes per record (multiple of 8). The record stride is
  /// 8 + payload_bytes (one version word + payload), deliberately unpadded
  /// so records share cache lines — the false-sharing traffic the paper's
  /// sub-blocking exists to disambiguate.
  std::uint32_t payload_bytes = 16;
  /// Point operations per transaction.
  std::uint32_t tx_len = 4;
  /// Transactions per guest thread (scaled by WorkloadParams::scale).
  std::uint64_t tx_per_thread = 400;
  /// Zipf skew of the key-choice distribution; 0 = uniform. YCSB's default
  /// is 0.99; values > 1 concentrate almost all traffic on a few records.
  double theta = 0.99;
  /// Free-form mix ratios (used when mix == kCustom; must sum to <= 1, the
  /// remainder is the blind-update ratio).
  double read_ratio = 0.5;
  double rmw_ratio = 0.0;
  double scan_ratio = 0.0;
  /// Consecutive records touched by one scan operation (wraps at the end
  /// of the table).
  std::uint32_t scan_len = 8;
  /// YCSB-D "latest" sliding hot window (--oltp-hot-window): when nonzero,
  /// keys are drawn zipf-skewed over the `hot_window` most recently
  /// "inserted" records behind a per-thread virtual insertion head that
  /// advances every transaction, instead of zipf over the whole table.
  /// 0 keeps the whole-table zipf (the pre-window behavior).
  std::uint64_t hot_window = 0;
  /// Preset selector; non-custom values override the three ratios above.
  OltpMix mix = OltpMix::kCustom;

  /// Copy with the mix preset folded into the ratio knobs.
  [[nodiscard]] OltpConfig resolved() const;

  /// Empty string when consistent; otherwise a human-readable complaint.
  /// Checked at workload setup, before any guest memory is allocated.
  [[nodiscard]] std::string validate() const;
};

template <>
struct FieldTable<OltpConfig> {
  static constexpr auto fields = std::tuple{
      field(&OltpConfig::records, {.key = "records", .flag = "--oltp-records"}),
      field(&OltpConfig::payload_bytes,
            {.key = "payload_bytes", .flag = "--oltp-payload"}),
      field(&OltpConfig::tx_len, {.key = "tx_len", .flag = "--oltp-tx-len"}),
      field(&OltpConfig::tx_per_thread,
            {.key = "tx_per_thread", .flag = "--oltp-tx"}),
      field(&OltpConfig::theta,
            {.key = "theta", .flag = "--oltp-theta", .lo = 0.0}),
      field(&OltpConfig::read_ratio,
            {.key = "read_ratio", .flag = "--oltp-read-ratio",
             .lo = 0.0, .hi = 1.0}),
      field(&OltpConfig::rmw_ratio,
            {.key = "rmw_ratio", .flag = "--oltp-rmw-ratio",
             .lo = 0.0, .hi = 1.0}),
      field(&OltpConfig::scan_ratio,
            {.key = "scan_ratio", .flag = "--oltp-scan-ratio",
             .lo = 0.0, .hi = 1.0}),
      field(&OltpConfig::scan_len,
            {.key = "scan_len", .flag = "--oltp-scan-len"}),
      field(&OltpConfig::hot_window,
            {.key = "hot_window", .flag = "--oltp-hot-window"}),
      field(&OltpConfig::mix, {.key = "mix", .flag = "--oltp-mix"}),
  };
};
static_assert(table_complete<OltpConfig>(),
              "every OltpConfig member needs an entry");

}  // namespace asfsim
