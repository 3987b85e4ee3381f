// asfsim_trace: offline analysis of full-timeline traces
// (docs/observability.md).
//
//   asfsim_trace summarize <trace.jsonl> [--top N] [--starvation]
//       Event counts, top-N conflicting lines, hottest core pairs, the
//       core×core conflict matrix, an abort-cause timeline, and a
//       forward-progress section (aborts per tx, per-core max consecutive
//       aborts, fallback acquisitions). --starvation additionally demands
//       a contention-policy trace: it exits non-zero when the stream holds
//       no policy or fallback-acquisition events at all.
//
//   asfsim_trace convert <trace.jsonl> <out.perfetto.json>
//       Re-emit a JSONL trace as a Chrome/Perfetto trace-event file
//       (load it at https://ui.perfetto.dev or chrome://tracing).
//
//   asfsim_trace conflicts <trace.jsonl> [--top N] [--csv <out.csv>]
//       Conflict-provenance forensics over a --prov trace: ranked offender
//       sites, hottest lines with a sub-block occupancy heatmap, and the
//       requester->victim site-pair matrix. --csv additionally dumps the
//       untruncated tables.
//
// Every command exits non-zero with a one-line diagnostic on a missing,
// unreadable, empty, or truncated/malformed trace; `asfsim_trace --help`
// lists every command's flags.
#include <sys/stat.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/args.hpp"
#include "trace/conflicts.hpp"
#include "trace/jsonl.hpp"
#include "trace/perfetto_sink.hpp"
#include "trace/summary.hpp"

namespace {

/// Open a trace file for reading, rejecting directories and empty files up
/// front with a one-line diagnostic (a directory "opens" fine on POSIX and
/// would otherwise surface as a confusing read error; an empty trace means
/// the producing run never started or the file was truncated to nothing).
bool open_trace(const char* argv0, const char* path, std::ifstream& in) {
  struct stat st {};
  if (::stat(path, &st) != 0) {
    std::fprintf(stderr, "%s: cannot open %s: no such file\n", argv0, path);
    return false;
  }
  if ((st.st_mode & S_IFMT) == S_IFDIR) {
    std::fprintf(stderr, "%s: %s is a directory, expected a trace file\n",
                 argv0, path);
    return false;
  }
  if (st.st_size == 0) {
    std::fprintf(stderr, "%s: %s: empty trace (no events)\n", argv0, path);
    return false;
  }
  in.open(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", argv0, path);
    return false;
  }
  return true;
}

int cmd_summarize(const char* argv0, const char* path, int top_n,
                  bool starvation) {
  std::ifstream in;
  if (!open_trace(argv0, path, in)) return 1;
  asfsim::trace::TraceSummary summary;
  std::string err;
  if (!asfsim::trace::summarize_jsonl(in, summary, err)) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path, err.c_str());
    return 1;
  }
  if (summary.total_events == 0) {
    std::fprintf(stderr, "%s: %s: empty trace (no events)\n", argv0, path);
    return 1;
  }
  if (starvation && !summary.has_cm_events()) {
    std::fprintf(stderr,
                 "%s: %s: no contention-policy events (rerun with a "
                 "non-default --cm-policy or --cm-stats to trace policy "
                 "decisions)\n",
                 argv0, path);
    return 1;
  }
  std::cout << "trace: " << path << "\n";
  asfsim::trace::print_summary(summary, std::cout, top_n);
  return 0;
}

int cmd_convert(const char* argv0, const char* path, const char* out_path) {
  std::ifstream in;
  if (!open_trace(argv0, path, in)) return 1;
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", argv0, out_path);
    return 1;
  }
  asfsim::trace::PerfettoSink sink(out);
  std::size_t events = 0;
  asfsim::Cycle last_cycle = 0;
  const auto add = [&](const asfsim::trace::TraceEvent& ev) {
    ++events;
    if (ev.cycle > last_cycle) last_cycle = ev.cycle;
    sink.on_event(ev);
  };
  std::string err;
  if (!asfsim::trace::for_each_jsonl_event(in, add, err)) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path, err.c_str());
    return 1;
  }
  if (events == 0) {
    std::fprintf(stderr, "%s: %s: empty trace (no events)\n", argv0, path);
    return 1;
  }
  sink.finish(last_cycle);
  std::fprintf(stderr, "wrote %s (%zu events)\n", out_path, events);
  return 0;
}

int cmd_conflicts(const char* argv0, const char* path, int top_n,
                  const std::string& csv_path) {
  std::ifstream in;
  if (!open_trace(argv0, path, in)) return 1;
  asfsim::trace::ConflictForensics f;
  std::string err;
  if (!asfsim::trace::collect_conflicts_jsonl(in, f, err)) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path, err.c_str());
    return 1;
  }
  std::cout << "trace: " << path << "\n";
  asfsim::trace::print_conflicts(f, std::cout, top_n);
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path, std::ios::binary | std::ios::trunc);
    if (!csv) {
      std::fprintf(stderr, "%s: cannot open %s for writing\n", argv0,
                   csv_path.c_str());
      return 1;
    }
    asfsim::trace::print_conflicts_csv(f, csv);
    std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asfsim;
  std::string path;
  std::string out_path;
  std::string csv_path;
  int top_n = 10;
  bool starvation = false;
  const CliFlag trace{"<trace.jsonl>", "", [&](CliArgs& a) { path = a.arg(); }};
  const CliFlag out{"<out.perfetto.json>", "",
                    [&](CliArgs& a) { out_path = a.arg(); }};
  const CliFlag top = number_flag("--top", top_n, 1, INT_MAX);
  const std::vector<CliCommand> cmds = {
      {"summarize",
       {.flags = {top, switch_flag("--starvation", starvation)},
        .positionals = {trace}},
       [&] { return cmd_summarize(argv[0], path.c_str(), top_n, starvation); }},
      {"convert",
       {.positionals = {trace, out}},
       [&] { return cmd_convert(argv[0], path.c_str(), out_path.c_str()); }},
      {"conflicts",
       {.flags = {top, text_flag("--csv", "path", csv_path)},
        .positionals = {trace}},
       [&] { return cmd_conflicts(argv[0], path.c_str(), top_n, csv_path); }},
  };
  return run_cli_command(argc, argv, cmds);
}
