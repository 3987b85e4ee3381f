#include "harness/args.hpp"

#include <cstdio>
#include <cstdlib>

#include "cm/cm_config.hpp"
#include "fault/fault_config.hpp"

namespace asfsim {

const char* CliArgs::value() {
  if (i_ + 1 >= argc_) fail(std::string("missing value for ") + argv_[i_]);
  return argv_[++i_];
}

void CliArgs::fail(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s\n", argv_[0], msg.c_str());
  std::exit(2);
}

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
    } else if (f == "--fault-spurious") {
      o.fault_spurious = a.number(0.0, 1.0);
    } else if (f == "--fault-commit") {
      o.fault_commit = a.number(0.0, 1.0);
    } else if (f == "--fault-evict") {
      o.fault_evict = a.number(0.0, 1.0);
    } else if (f == "--fault-probe-jitter") {
      o.fault_probe_jitter = a.number<std::uint64_t>();
    } else if (f == "--fault-sched-jitter") {
      o.fault_sched_jitter = a.number<std::uint64_t>();
    } else if (f == "--mutate") {
      o.mutate = a.value();
      ProtocolMutation mut;
      if (!parse_mutation(o.mutate, mut)) {
        a.fail("unknown --mutate " + o.mutate +
               " (try drop-dirty-subblock, forget-invalidated-specinfo, "
               "skip-written-mask, skip-commit-validation)");
      }
    } else if (f == "--oltp-records") {
      o.oltp.records = a.number<std::uint64_t>();
    } else if (f == "--oltp-payload") {
      o.oltp.payload_bytes = a.number<std::uint32_t>();
    } else if (f == "--oltp-tx-len") {
      o.oltp.tx_len = a.number<std::uint32_t>();
    } else if (f == "--oltp-tx") {
      o.oltp.tx_per_thread = a.number<std::uint64_t>();
    } else if (f == "--oltp-theta") {
      o.oltp.theta = a.number(0.0);
    } else if (f == "--oltp-read-ratio") {
      o.oltp.read_ratio = a.number(0.0, 1.0);
    } else if (f == "--oltp-rmw-ratio") {
      o.oltp.rmw_ratio = a.number(0.0, 1.0);
    } else if (f == "--oltp-scan-ratio") {
      o.oltp.scan_ratio = a.number(0.0, 1.0);
    } else if (f == "--oltp-scan-len") {
      o.oltp.scan_len = a.number<std::uint32_t>();
    } else if (f == "--oltp-hot-window") {
      o.oltp.hot_window = a.number<std::uint64_t>();
    } else if (f == "--prov") {
      o.prov = true;
    } else if (f == "--cm-policy") {
      const char* name = a.value();
      if (!parse_cm_policy(name, o.cm.policy)) {
        a.fail(std::string("unknown --cm-policy ") + name +
               " (try requester-wins, polite, timestamp, serialize)");
      }
    } else if (f == "--cm-max-retries") {
      o.cm.max_retries = a.number<std::uint32_t>();
    } else if (f == "--cm-karma") {
      o.cm.karma = a.number<std::uint32_t>();
    } else if (f == "--cm-stats") {
      o.cm.stats = true;
    } else if (f == "--oltp-mix") {
      const char* name = a.value();
      if (!parse_oltp_mix(name, o.oltp.mix)) {
        a.fail(std::string("unknown --oltp-mix ") + name +
               " (try a..f or custom)");
      }
    } else if (f == "--watchdog") {
      o.watchdog = a.number<std::uint64_t>();
    } else if (f == "--job-timeout") {
      o.job_timeout = a.number(0.0);
    } else if (f == "--help") {
      std::printf(
          "usage: %s%s [--scale f] [--threads n] [--seed n]%s "
          "[--trace-dir dir] [--trace-format jsonl|perfetto]\n"
          "  robustness: [--fault-spurious p] [--fault-commit p] "
          "[--fault-evict p] [--fault-probe-jitter n] "
          "[--fault-sched-jitter n] [--mutate name] [--watchdog n] "
          "[--job-timeout s]\n"
          "  oltp: [--oltp-records n] [--oltp-payload n] [--oltp-tx-len n] "
          "[--oltp-tx n] [--oltp-theta f] [--oltp-read-ratio f] "
          "[--oltp-rmw-ratio f] [--oltp-scan-ratio f] [--oltp-scan-len n] "
          "[--oltp-hot-window n] [--oltp-mix a..f|custom]\n"
          "  contention: [--cm-policy requester-wins|polite|timestamp|"
          "serialize] [--cm-max-retries n] [--cm-karma n] [--cm-stats]\n"
          "  observability: [--prov] (conflict provenance attribution)\n",
          argv[0], extras.usage.c_str(),
          extras.runner_flags ? " [--csv dir] [--jobs n] [--no-cache]" : "");
      std::exit(0);
    } else if (!extras.flag || !extras.flag(a)) {
      a.fail("unknown flag " + std::string(f) + " (see --help)");
    }
  }
  return o;
}

}  // namespace asfsim
