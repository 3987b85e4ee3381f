// Tiny CLI parsing shared by the figure driver, asfsim_explore, asfsim_chaos
// and examples. `<prog> --help` lists every flag; the --fault-* / --mutate,
// --oltp-* and --cm-* groups come straight from the FaultConfig, OltpConfig
// and CmConfig field tables (flag spelling and accepted range), and the
// knobs themselves are documented next to those fields. The flag groups'
// background: docs/robustness.md, docs/workloads.md ("The OLTP/KV family"),
// docs/contention.md and docs/observability.md (--prov).
//
// Every numeric value must parse completely and lie in the flag's range;
// anything else ends in "<prog>: bad value for <flag>: '<text>'" and exit 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include "cm/cm_config.hpp"
#include "fault/fault_config.hpp"
#include "oltp/oltp_config.hpp"

namespace asfsim {

struct CliOptions {
  double scale = 1.0;
  std::uint32_t threads = 8;
  std::uint64_t seed = 1;
  std::string csv_dir;
  std::uint32_t jobs = 0;  // runner workers; 0 = hardware concurrency
  bool no_cache = false;   // skip the content-addressed result cache
  std::string trace_dir;   // empty = tracing disabled
  std::string trace_format = "jsonl";  // "jsonl" | "perfetto"

  // Robustness knobs (apply_robustness_options folds them into the
  // ExperimentConfig; all defaults preserve the clean-run byte output).
  FaultConfig fault;
  std::uint64_t watchdog = 0;
  double job_timeout = 0.0;  // seconds; env ASFSIM_JOB_TIMEOUT also works

  /// OLTP workload knobs; flow into WorkloadParams::oltp (and therefore the
  /// JobSpec hash) via base_config/apply_robustness_options.
  OltpConfig oltp;

  /// Conflict provenance (--prov): flows into SimConfig::provenance.
  bool prov = false;

  /// Contention management (--cm-*): flows into SimConfig::cm.
  CmConfig cm;
};

/// Cursor over argv, shared by parse_cli and a tool's own flag hook.
class CliArgs {
 public:
  CliArgs(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advance to the next argument; false past the end.
  bool next() { return ++i_ < argc_; }
  [[nodiscard]] std::string_view arg() const { return argv_[i_]; }

  /// The current flag's value (the next argument); exits 2 when missing.
  const char* value();

  /// value() parsed as a T in [lo, hi]; exits 2 on anything else
  /// (trailing junk, a sign on an unsigned flag, overflow, NaN, inf).
  template <typename T>
  T number(T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max()) {
    const char* flag = argv_[i_];
    const char* text = value();
    const char* end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
      fail(std::string("bad value for ") + flag + ": '" + text + "'");
    }
    return v;
  }

  /// Print "<prog>: <msg>" on stderr and exit 2.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
};

/// When the current argument is one of the record's flags (FieldInfo::flag),
/// parse its value into that field — exiting 2 on a bad value — and return
/// true; otherwise return false and consume nothing.
bool parse_flag(CliArgs& a, FaultConfig& c);
bool parse_flag(CliArgs& a, OltpConfig& c);
bool parse_flag(CliArgs& a, CmConfig& c);

/// What a binary accepts beyond the common flags.
struct CliExtras {
  /// Called on each argument parse_cli does not know; returns true when it
  /// consumed the argument (and its value, via CliArgs::value/number).
  std::function<bool(CliArgs&)> flag;
  /// Synopsis of the hook's arguments, printed by --help after the program.
  std::string usage;
  /// Accept --csv/--jobs/--no-cache. Tools that run one experiment
  /// in-process (no runner, no CSV) reject them instead of ignoring them.
  bool runner_flags = true;
};

/// Parse the common flags; exits with a one-line diagnostic on errors.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   const CliExtras& extras = {});

}  // namespace asfsim
