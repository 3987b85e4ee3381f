// asfsim_lint driver: scan files/directories, run the rule passes, print
// diagnostics, exit nonzero on any finding.
//
//   asfsim_lint [options] <file-or-dir>...
//     --exclude <substr>        skip paths containing <substr> (repeatable)
//     --format text|sarif       output format (default text)
//     --output <file>           write the report there instead of stdout
//     --baseline <file>         suppress findings listed in the baseline
//     --write-baseline <file>   write current findings as a baseline, exit 0
//     --fix                     apply available autofixes in place
//     --dry-run                 with --fix: report, but do not write files
//     --fix-hints               print the suggested rewrite under findings
//     --list-rules              print the rule ids and one-line summaries
//
// Suppression: `// asfsim-lint: allow(<rule>)` on the offending line (or on
// a line of its own directly above it); `allow-file(<rule>)` anywhere in a
// file; `all` matches every rule. Baseline entries are `rule path:line`
// lines; `#` starts a comment.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fix.hpp"
#include "lexer.hpp"
#include "parser.hpp"
#include "rules.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;
using namespace asfsim_lint;

namespace {

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

bool excluded(const std::string& path, const std::vector<std::string>& subs) {
  for (const auto& s : subs) {
    if (path.find(s) != std::string::npos) return true;
  }
  return false;
}

/// Returns false when `root` does not exist (a typo'd path must not read
/// as a clean run).
bool collect(const fs::path& root, const std::vector<std::string>& excludes,
             std::vector<fs::path>& out) {
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (fs::recursive_directory_iterator it(root, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec) && is_cpp_source(it->path()) &&
          !excluded(it->path().generic_string(), excludes)) {
        out.push_back(it->path());
      }
    }
  } else if (fs::exists(root, ec)) {
    if (!excluded(root.generic_string(), excludes)) out.push_back(root);
  } else {
    std::cerr << "asfsim_lint: no such file or directory: " << root.string()
              << "\n";
    return false;
  }
  return true;
}

void print_rules() {
  std::cout
      << kRuleCoawaitInCondition
      << "  (R1) co_await inside an if/while/for/switch header or ternary\n"
      << "       condition: GCC 12 corrupts the coroutine frame when the\n"
      << "       controlled branch also suspends (DESIGN.md §7). Hoist the\n"
      << "       awaited value into a named local, then branch on it.\n"
      << "       Autofix: hoists a plain `if` condition.\n"
      << kRuleDiscardedTask
      << "  (R2) call to a Task-returning function whose result is neither\n"
      << "       co_awaited nor stored: Task is lazy, a dropped task never\n"
      << "       runs its body. Autofix: prepends co_await inside coroutines.\n"
      << kRuleGlobalAllocInTx
      << "  (R3) guest-thread (coroutine) code in workloads/ or oltp/\n"
      << "       allocating via\n"
      << "       galloc().alloc/alloc_lines: the global bump path hands\n"
      << "       concurrent transactions adjacent nodes in one cache line\n"
      << "       and fabricates WAW false sharing (DESIGN.md §6.9). Use\n"
      << "       GuestCtx::alloc_local. Autofix: rewrites to the GuestCtx\n"
      << "       parameter when the function has one. Also flags raw host\n"
      << "       heap allocation (new/malloc) in coroutines; the per-core\n"
      << "       FrameArena is exempt via an explicit allowlist only.\n"
      << kRuleRawGuestAccess
      << "  (R4) guest-thread code in workloads/ or oltp/ calling\n"
      << "       poke/peek/backing\n"
      << "       or reinterpret_cast: host-side backdoors bypass the caches,\n"
      << "       the conflict detector, and the classifier byte masks. Use\n"
      << "       GuestCtx typed loads/stores.\n"
      << kRuleNondeterministicSource
      << "  (R5) rand()/srand()/time()/clock()/getenv()/system_clock/\n"
      << "       steady_clock/random_device in simulator-affecting code\n"
      << "       (src/{sim,core,mem,htm,guest,oltp,workloads,fault,stats}):\n"
      << "       results must be a pure function of (config, seed), or the\n"
      << "       JobSpec result cache and reproducibility break.\n"
      << kRuleUnorderedIteration
      << "  (R6) range-for over an unordered container in simulator-\n"
      << "       affecting code: iteration order is unspecified and varies\n"
      << "       across stdlib implementations; order-sensitive effects\n"
      << "       break run-to-run determinism.\n";
}

std::string finding_key(const Diagnostic& d) {
  return d.rule + " " + d.path + ":" + std::to_string(d.line);
}

/// Baseline file: one `rule path:line` entry per line, `#` comments.
bool load_baseline(const std::string& path, std::set<std::string>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "asfsim_lint: cannot read baseline " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim.
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const std::size_t e = line.find_last_not_of(" \t\r");
    out.insert(line.substr(b, e - b + 1));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> excludes;
  std::vector<fs::path> roots;
  bool fix_hints = false;
  bool fix = false;
  bool dry_run = false;
  std::string format = "text";
  std::string output;
  std::string baseline_path;
  std::string write_baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "asfsim_lint: " << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--exclude") {
      const char* v = value("--exclude");
      if (v == nullptr) return 2;
      excludes.emplace_back(v);
    } else if (arg == "--format") {
      const char* v = value("--format");
      if (v == nullptr) return 2;
      format = v;
      if (format != "text" && format != "sarif") {
        std::cerr << "asfsim_lint: unknown format: " << format << "\n";
        return 2;
      }
    } else if (arg == "--output") {
      const char* v = value("--output");
      if (v == nullptr) return 2;
      output = v;
    } else if (arg == "--baseline") {
      const char* v = value("--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = value("--write-baseline");
      if (v == nullptr) return 2;
      write_baseline_path = v;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--fix-hints") {
      fix_hints = true;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: asfsim_lint [--exclude <substr>]... "
                   "[--format text|sarif] [--output <file>]\n"
                   "                   [--baseline <file>] "
                   "[--write-baseline <file>] [--fix [--dry-run]]\n"
                   "                   [--fix-hints] [--list-rules] "
                   "<file-or-dir>...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "asfsim_lint: unknown option: " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "asfsim_lint: no inputs (try --help)\n";
    return 2;
  }

  std::vector<fs::path> paths;
  bool roots_ok = true;
  for (const auto& r : roots) roots_ok &= collect(r, excludes, paths);
  if (!roots_ok) return 2;
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<ParsedFile> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "asfsim_lint: cannot read " << p.string() << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ParsedFile pf;
    pf.file = lex(p.generic_string(), ss.str());
    pf.ast = parse(pf.file);
    files.push_back(std::move(pf));
  }

  const RuleContext ctx = collect_context(files);
  std::vector<Diagnostic> diags;
  for (const auto& pf : files) {
    for (auto& d : check_file(pf, ctx)) diags.push_back(std::move(d));
  }
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "asfsim_lint: cannot write baseline "
                << write_baseline_path << "\n";
      return 2;
    }
    out << "# asfsim_lint baseline: known findings suppressed by "
           "--baseline.\n"
           "# One `rule path:line` entry per line; keep this shrinking.\n";
    for (const auto& d : diags) out << finding_key(d) << "\n";
    std::cerr << "asfsim_lint: wrote " << diags.size() << " baseline entr"
              << (diags.size() == 1 ? "y" : "ies") << " to "
              << write_baseline_path << "\n";
    return 0;
  }

  if (!baseline_path.empty()) {
    std::set<std::string> baseline;
    if (!load_baseline(baseline_path, baseline)) return 2;
    std::vector<Diagnostic> kept;
    for (auto& d : diags) {
      if (baseline.count(finding_key(d)) == 0) kept.push_back(std::move(d));
    }
    diags = std::move(kept);
  }

  if (fix) {
    int total_applied = 0;
    int total_skipped = 0;
    for (const auto& pf : files) {
      const FixResult r = apply_fixes(pf.file, diags);
      if (r.applied == 0 && r.skipped == 0) continue;
      total_applied += r.applied;
      total_skipped += r.skipped;
      if (dry_run) {
        std::cout << "would fix " << r.applied << " finding"
                  << (r.applied == 1 ? "" : "s") << " in " << pf.file.path
                  << "\n";
      } else {
        std::ofstream out(pf.file.path, std::ios::binary | std::ios::trunc);
        if (!out) {
          std::cerr << "asfsim_lint: cannot write " << pf.file.path << "\n";
          return 2;
        }
        out << r.source;
        std::cout << "fixed " << r.applied << " finding"
                  << (r.applied == 1 ? "" : "s") << " in " << pf.file.path
                  << "\n";
      }
    }
    std::cerr << "asfsim_lint: " << (dry_run ? "would apply " : "applied ")
              << total_applied << " fix" << (total_applied == 1 ? "" : "es");
    if (total_skipped != 0) {
      std::cerr << " (" << total_skipped << " skipped: overlapping edits)";
    }
    std::cerr << "\n";
  }

  std::ostream* sink = &std::cout;
  std::ofstream out_file;
  if (!output.empty()) {
    out_file.open(output, std::ios::binary | std::ios::trunc);
    if (!out_file) {
      std::cerr << "asfsim_lint: cannot write " << output << "\n";
      return 2;
    }
    sink = &out_file;
  }
  if (format == "sarif") {
    *sink << to_sarif(diags);
  } else {
    for (const auto& d : diags) {
      *sink << d.path << ":" << d.line << ": " << d.rule << ": " << d.message
            << "\n";
      if (fix_hints && !d.fix_hint.empty()) {
        *sink << "    fix: " << d.fix_hint << "\n";
      }
    }
  }
  std::cerr << "asfsim_lint: " << files.size() << " files, " << diags.size()
            << " finding" << (diags.size() == 1 ? "" : "s") << "\n";
  return diags.empty() ? 0 : 1;
}
