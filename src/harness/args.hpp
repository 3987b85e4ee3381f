// One command-line parser for every simulator binary. Each binary declares
// the common flag groups it honours, its own flags and its positional
// arguments once; that list drives the parsing and `--help` (one
// "  --flag metavar" line per flag, which the cli.surface ctest fuzzes).
// The --fault-* / --mutate, --oltp-* and --cm-* groups come straight from the
// FaultConfig, OltpConfig and CmConfig field tables (flag spelling and range).
//
// Every error is one stderr line and exit 2: "<prog>: unknown flag <flag>",
// "<prog>: missing value for <flag>", "<prog>: bad value for <flag>:
// '<text>'" (a number that does not parse completely or lies outside the
// flag's range, or a name outside an enumerated flag's list), and a missing
// or extra positional argument.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cm/cm_config.hpp"
#include "core/detector.hpp"
#include "fault/fault_config.hpp"
#include "oltp/oltp_config.hpp"

namespace asfsim {

/// On-disk format for a full-timeline trace (docs/observability.md).
enum class TraceFormat : std::uint8_t { kNone = 0, kJsonl, kPerfetto };

/// Everything the common flags set. experiment_config (harness/experiment)
/// turns it into the ExperimentConfig every job of a run starts from.
struct CliOptions {
  double scale = 1.0;
  std::uint32_t threads = 8;
  std::uint64_t seed = 1;
  std::string csv_dir;
  std::uint32_t jobs = 0;  // runner workers; 0 = hardware concurrency
  bool no_cache = false;   // skip the content-addressed result cache
  std::string trace_dir;   // empty = tracing disabled
  TraceFormat trace_format = TraceFormat::kJsonl;

  // Robustness knobs (all defaults preserve the clean-run byte output).
  FaultConfig fault;
  std::uint64_t watchdog = 0;
  double job_timeout = 0.0;  // seconds; becomes every job's wall_limit_s

  /// OLTP workload knobs; flow into WorkloadParams::oltp (and therefore the
  /// JobSpec hash).
  OltpConfig oltp;

  /// Conflict provenance (--prov): flows into SimConfig::provenance.
  bool prov = false;

  /// Contention management (--cm-*): flows into SimConfig::cm.
  CmConfig cm;
};

/// Cursor over argv, handed to each flag's reader.
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
    const char* text = value();
    const char* end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) bad_value();
    return v;
  }

  /// "bad value for <flag>: '<value>'" for the value just read; exits 2.
  [[noreturn]] void bad_value() const;
  /// The same for a named flag and value.
  [[noreturn]] void bad_value(std::string_view flag,
                              std::string_view text) const;

  /// Print "<prog>: <msg>" on stderr and exit 2.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
};

/// One declared flag: its spelling, the --help name of its value (empty for
/// a switch, which takes none) and the reader that stores the value. A
/// positional argument is declared the same way, with its synopsis as the
/// flag ("<figure>"; "[<figure>]" when it may be left out) and
/// CliArgs::arg() as its value.
struct CliFlag {
  std::string flag;
  std::string metavar;
  std::function<void(CliArgs&)> read;
};

/// A number flag in [lo, hi]; its metavar is "n" (integer) or "f" (real).
template <typename T>
CliFlag number_flag(
    const char* flag, T& out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  return {flag, std::is_floating_point_v<T> ? "f" : "n",
          [&out, lo, hi](CliArgs& a) { out = a.number<T>(lo, hi); }};
}

/// A flag whose value is stored as given; `metavar` names it in --help.
CliFlag text_flag(const char* flag, const char* metavar, std::string& out);

/// A switch: sets `out` and takes no value.
CliFlag switch_flag(const char* flag, bool& out);

/// A flag whose value is one of `names` (its metavar lists them, joined by
/// '|'); `set` receives the index of the name given.
CliFlag choice_flag(const char* flag, std::vector<std::string> names,
                    std::function<void(std::size_t)> set);

/// --nsub: sub-blocks per line, a power of two in [1, kMaxSubBlocks].
CliFlag nsub_flag(std::uint32_t& out);

/// The flags of a config record's field table (FieldInfo::flag).
std::vector<CliFlag> table_flags(FaultConfig& r);
std::vector<CliFlag> table_flags(OltpConfig& r);
std::vector<CliFlag> table_flags(CmConfig& r);

/// Groups of common flags (CliOptions members); a binary names the groups it
/// honours and rejects the others as unknown flags.
enum CliGroup : unsigned {
  kCliSize = 1u << 0,        // --scale --threads --seed
  kCliRunner = 1u << 1,      // --csv --jobs --no-cache
  kCliTrace = 1u << 2,       // --trace-dir --trace-format
  kCliRobustness = 1u << 3,  // FaultConfig table, --watchdog, --job-timeout
  kCliOltp = 1u << 4,        // OltpConfig table
  kCliCm = 1u << 5,          // CmConfig table
  kCliProv = 1u << 6,        // --prov
  kCliAllGroups = (1u << 7) - 1,
};

/// Everything one binary (or one subcommand) accepts.
struct CliSpec {
  unsigned groups = 0;  // CliGroup bits
  std::vector<CliFlag> flags{};
  std::vector<CliFlag> positionals{};  // in order
  /// A rule between flags, checked once every argument is read (so it holds
  /// whatever the flag order); it fails through CliArgs::bad_value.
  std::function<void(const CliArgs&)> check{};
};

/// CliSpec::check for --nsub: "bad value for --nsub" unless `nsub` suits
/// `detector` (valid_nsub).
std::function<void(const CliArgs&)> nsub_check(const DetectorKind& detector,
                                               const std::uint32_t& nsub);

/// Parse argv against `spec`; --help prints the declared flags and exits 0.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv, const CliSpec& spec);

/// One subcommand of a multi-command tool.
struct CliCommand {
  const char* name;
  CliSpec spec;
  std::function<int()> run;
};

/// argv[1] names the command; the rest parses against its spec (diagnostics
/// read "<prog> <command>: ..."), then its run() gives the exit code.
/// `<prog> --help` prints every command's flags.
int run_cli_command(int argc, char** argv, const std::vector<CliCommand>& cmds);

}  // namespace asfsim
