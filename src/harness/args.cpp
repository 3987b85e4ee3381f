#include "harness/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace asfsim {

namespace {

// Flag readers and --help metavariables by field type: a config table names
// the flag, the field's type picks how its value is parsed.

template <typename T>
void read_value(CliArgs& a, const FieldInfo& f, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = true;  // a switch: takes no value
  } else if constexpr (std::is_floating_point_v<T>) {
    v = a.number(f.lo, f.hi);
  } else {
    v = a.number<T>();
  }
}

void read_value(CliArgs& a, const FieldInfo&, ProtocolMutation& v) {
  const char* name = a.value();
  if (!parse_mutation(name, v)) {
    a.fail(std::string("unknown --mutate ") + name +
           " (try drop-dirty-subblock, forget-invalidated-specinfo, "
           "skip-written-mask, skip-commit-validation)");
  }
}

void read_value(CliArgs& a, const FieldInfo&, CmPolicyKind& v) {
  const char* name = a.value();
  if (!parse_cm_policy(name, v)) {
    a.fail(std::string("unknown --cm-policy ") + name +
           " (try requester-wins, polite, timestamp, serialize)");
  }
}

void read_value(CliArgs& a, const FieldInfo&, OltpMix& v) {
  const char* name = a.value();
  if (!parse_oltp_mix(name, v)) {
    a.fail(std::string("unknown --oltp-mix ") + name +
           " (try a..f or custom)");
  }
}

template <typename T>
const char* metavar(const T&) {
  if constexpr (std::is_same_v<T, bool>) {
    return nullptr;  // a switch
  } else {
    return std::is_floating_point_v<T> ? "f" : "n";
  }
}
const char* metavar(const ProtocolMutation&) { return "name"; }
const char* metavar(const CmPolicyKind&) {
  return "requester-wins|polite|timestamp|serialize";
}
const char* metavar(const OltpMix&) { return "a..f|custom"; }

template <typename R>
bool parse_table_flag(CliArgs& a, R& r) {
  bool hit = false;
  for_each_field(r, [&](const FieldInfo& f, auto& v) {
    if (hit || f.flag == nullptr || a.arg() != f.flag) return;
    read_value(a, f, v);
    hit = true;
  });
  return hit;
}

/// " [--flag metavar]..." over a record's flagged fields.
template <typename R>
std::string table_usage() {
  std::string out;
  const R defaults{};
  for_each_field(defaults, [&](const FieldInfo& f, const auto& v) {
    if (f.flag == nullptr) return;
    out += std::string(" [") + f.flag;
    if (const char* m = metavar(v)) out += std::string(" ") + m;
    out += ']';
  });
  return out;
}

}  // namespace

const char* CliArgs::value() {
  if (i_ + 1 >= argc_) fail(std::string("missing value for ") + argv_[i_]);
  return argv_[++i_];
}

void CliArgs::fail(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s\n", argv_[0], msg.c_str());
  std::exit(2);
}

bool parse_flag(CliArgs& a, FaultConfig& c) { return parse_table_flag(a, c); }
bool parse_flag(CliArgs& a, OltpConfig& c) { return parse_table_flag(a, c); }
bool parse_flag(CliArgs& a, CmConfig& c) { return parse_table_flag(a, c); }

CliOptions parse_cli(int argc, char** argv, const CliExtras& extras) {
  CliOptions o;
  constexpr double kPositive = std::numeric_limits<double>::min();
  for (CliArgs a(argc, argv); a.next();) {
    const std::string_view f = a.arg();
    if (!extras.runner_flags &&
        (f == "--csv" || f == "--jobs" || f == "--no-cache")) {
      a.fail(std::string(f) + " is not supported by this tool");
    }
    if (f == "--scale") {
      o.scale = a.number<double>(kPositive);
    } else if (f == "--threads") {
      o.threads = a.number<std::uint32_t>(1, 64);
    } else if (f == "--seed") {
      o.seed = a.number<std::uint64_t>();
    } else if (f == "--csv") {
      o.csv_dir = a.value();
    } else if (f == "--jobs") {
      o.jobs = a.number<std::uint32_t>(0, 1024);
    } else if (f == "--no-cache") {
      o.no_cache = true;
    } else if (f == "--trace-dir") {
      o.trace_dir = a.value();
    } else if (f == "--trace-format") {
      o.trace_format = a.value();
      if (o.trace_format != "jsonl" && o.trace_format != "perfetto") {
        a.fail("--trace-format must be jsonl or perfetto");
      }
    } else if (f == "--prov") {
      o.prov = true;
    } else if (f == "--watchdog") {
      o.watchdog = a.number<std::uint64_t>();
    } else if (f == "--job-timeout") {
      o.job_timeout = a.number(0.0);
    } else if (f == "--help") {
      std::printf(
          "usage: %s%s [--scale f] [--threads n] [--seed n]%s "
          "[--trace-dir dir] [--trace-format jsonl|perfetto]\n"
          "  robustness:%s [--watchdog n] [--job-timeout s]\n"
          "  oltp:%s\n"
          "  contention:%s\n"
          "  observability: [--prov] (conflict provenance attribution)\n",
          argv[0], extras.usage.c_str(),
          extras.runner_flags ? " [--csv dir] [--jobs n] [--no-cache]" : "",
          table_usage<FaultConfig>().c_str(), table_usage<OltpConfig>().c_str(),
          table_usage<CmConfig>().c_str());
      std::exit(0);
    } else if (!parse_flag(a, o.fault) && !parse_flag(a, o.oltp) &&
               !parse_flag(a, o.cm) && (!extras.flag || !extras.flag(a))) {
      a.fail("unknown flag " + std::string(f) + " (see --help)");
    }
  }
  return o;
}

}  // namespace asfsim
