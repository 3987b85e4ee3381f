#include "harness/args.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "fault/chaos.hpp"

namespace asfsim {

namespace {

// Table flags by field type: a config table names the flag, the field's
// type picks how its value is parsed.

template <typename T>
CliFlag field_flag(const FieldInfo& f, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return switch_flag(f.flag, v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return number_flag(f.flag, v, f.lo, f.hi);
  } else {
    return number_flag(f.flag, v);
  }
}

template <typename E>
CliFlag enum_flag(const char* flag, std::string metavar, E& v,
                  bool (*parse)(std::string_view, E&)) {
  return {flag, std::move(metavar), [&v, parse](CliArgs& a) {
            if (!parse(a.value(), v)) a.bad_value();
          }};
}

CliFlag field_flag(const FieldInfo& f, ProtocolMutation& v) {
  std::string names = "none";
  for (const ProtocolMutation m : all_mutations()) {
    names += std::string("|") + to_string(m);
  }
  return enum_flag(f.flag, names, v, parse_mutation);
}
CliFlag field_flag(const FieldInfo& f, CmPolicyKind& v) {
  return enum_flag(f.flag, "requester-wins|polite|timestamp|serialize", v,
                   parse_cm_policy);
}
CliFlag field_flag(const FieldInfo& f, OltpMix& v) {
  return enum_flag(f.flag, "custom|a|b|c|d|e|f", v, parse_oltp_mix);
}

template <typename R>
std::vector<CliFlag> record_flags(R& r) {
  std::vector<CliFlag> out;
  for_each_field(r, [&](const FieldInfo& f, auto& v) {
    if (f.flag != nullptr) out.push_back(field_flag(f, v));
  });
  return out;
}

/// The common flags of the spec's groups, reading into `o`, then its own.
std::vector<CliFlag> declared_flags(const CliSpec& spec, CliOptions& o) {
  std::vector<CliFlag> out;
  const auto add = [&](CliGroup g, std::vector<CliFlag> flags) {
    if ((spec.groups & g) != 0) {
      out.insert(out.end(), flags.begin(), flags.end());
    }
  };
  add(kCliSize,
      {number_flag("--scale", o.scale, std::numeric_limits<double>::min()),
       number_flag("--threads", o.threads, 1, 64),
       number_flag("--seed", o.seed)});
  add(kCliRunner, {text_flag("--csv", "dir", o.csv_dir),
                   number_flag("--jobs", o.jobs, 0, 1024),
                   switch_flag("--no-cache", o.no_cache)});
  add(kCliTrace, {text_flag("--trace-dir", "dir", o.trace_dir),
                  choice_flag("--trace-format", {"jsonl", "perfetto"},
                              [&o](std::size_t i) {  // TraceFormat order
                                o.trace_format =
                                    static_cast<TraceFormat>(i + 1);
                              })});
  add(kCliRobustness, table_flags(o.fault));
  add(kCliRobustness, {number_flag("--watchdog", o.watchdog),
                       number_flag("--job-timeout", o.job_timeout, 0.0)});
  add(kCliOltp, table_flags(o.oltp));
  add(kCliCm, table_flags(o.cm));
  add(kCliProv, {switch_flag("--prov", o.prov)});
  out.insert(out.end(), spec.flags.begin(), spec.flags.end());
  return out;
}

std::string joined(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : sep) + n;
  return out;
}

void print_help(const std::string& prog, const CliSpec& spec) {
  std::string usage = prog;
  for (const CliFlag& p : spec.positionals) usage += " " + p.flag;
  std::printf("usage: %s [options]\n", usage.c_str());
  CliOptions unused;
  for (const CliFlag& f : declared_flags(spec, unused)) {
    std::printf("  %s%s%s\n", f.flag.c_str(), f.metavar.empty() ? "" : " ",
                f.metavar.c_str());
  }
}

}  // namespace

const char* CliArgs::value() {
  if (i_ + 1 >= argc_) fail(std::string("missing value for ") + argv_[i_]);
  return argv_[++i_];
}

void CliArgs::bad_value() const { bad_value(argv_[i_ - 1], argv_[i_]); }

void CliArgs::bad_value(std::string_view flag, std::string_view text) const {
  fail("bad value for " + std::string(flag) + ": '" + std::string(text) + "'");
}

void CliArgs::fail(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s\n", argv_[0], msg.c_str());
  std::exit(2);
}

CliFlag text_flag(const char* flag, const char* metavar, std::string& out) {
  return {flag, metavar, [&out](CliArgs& a) { out = a.value(); }};
}

CliFlag switch_flag(const char* flag, bool& out) {
  return {flag, "", [&out](CliArgs&) { out = true; }};
}

CliFlag choice_flag(const char* flag, std::vector<std::string> names,
                    std::function<void(std::size_t)> set) {
  std::string metavar = joined(names, "|");
  return {flag, std::move(metavar),
          [names = std::move(names), set = std::move(set)](CliArgs& a) {
            const auto it = std::find(names.begin(), names.end(), a.value());
            if (it == names.end()) a.bad_value();
            set(static_cast<std::size_t>(it - names.begin()));
          }};
}

CliFlag nsub_flag(std::uint32_t& out) {
  std::vector<std::string> names;
  for (std::uint32_t n = 1; valid_nsub(n); n *= 2) {
    names.push_back(std::to_string(n));
  }
  return choice_flag("--nsub", std::move(names),
                     [&out](std::size_t i) { out = 1u << i; });
}

std::function<void(const CliArgs&)> nsub_check(const DetectorKind& detector,
                                               const std::uint32_t& nsub) {
  return [&detector, &nsub](const CliArgs& a) {
    if (!valid_nsub(nsub, detector)) {
      a.bad_value("--nsub", std::to_string(nsub));
    }
  };
}

std::vector<CliFlag> table_flags(FaultConfig& r) { return record_flags(r); }
std::vector<CliFlag> table_flags(OltpConfig& r) { return record_flags(r); }
std::vector<CliFlag> table_flags(CmConfig& r) { return record_flags(r); }

CliOptions parse_cli(int argc, char** argv, const CliSpec& spec) {
  CliOptions o;
  const std::vector<CliFlag> flags = declared_flags(spec, o);
  std::size_t npos = 0;
  CliArgs a(argc, argv);
  while (a.next()) {
    const std::string_view arg = a.arg();
    if (arg == "--help") {
      print_help(argv[0], spec);
      std::exit(0);
    }
    if (!arg.starts_with("-")) {
      if (npos == spec.positionals.size()) {
        a.fail("unexpected argument '" + std::string(arg) + "' (see --help)");
      }
      spec.positionals[npos++].read(a);
      continue;
    }
    const auto f = std::find_if(
        flags.begin(), flags.end(),
        [&](const CliFlag& c) { return c.flag == arg; });
    if (f == flags.end()) {
      a.fail("unknown flag " + std::string(arg) + " (see --help)");
    }
    f->read(a);
  }
  // Only a last positional may be optional ("[<figure>]").
  if (npos < spec.positionals.size() && spec.positionals[npos].flag[0] != '[') {
    a.fail("missing " + spec.positionals[npos].flag + " (see --help)");
  }
  if (spec.check) spec.check(a);
  return o;
}

int run_cli_command(int argc, char** argv,
                    const std::vector<CliCommand>& cmds) {
  std::vector<std::string> names;
  for (const CliCommand& c : cmds) names.emplace_back(c.name);
  const std::string usage = "usage: " + std::string(argv[0]) + " <" +
                            joined(names, "|") + "> [options] (see --help)";
  const CliArgs args(argc, argv);
  if (argc < 2) args.fail(usage);
  const std::string_view name = argv[1];
  if (name == "--help") {
    for (const CliCommand& c : cmds) {
      print_help(std::string(argv[0]) + " " + c.name, c.spec);
    }
    return 0;
  }
  const auto cmd = std::find(names.begin(), names.end(), name);
  if (cmd == names.end()) {
    args.fail("unknown command '" + std::string(name) + "'; " + usage);
  }
  std::string prog = std::string(argv[0]) + " " + *cmd;
  argv[1] = prog.data();
  const CliCommand& c = cmds[static_cast<std::size_t>(cmd - names.begin())];
  (void)parse_cli(argc - 1, argv + 1, c.spec);
  return c.run();
}

}  // namespace asfsim
