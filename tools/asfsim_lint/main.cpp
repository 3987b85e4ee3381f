// asfsim_lint driver: scan files/directories, run the rule passes, print
// diagnostics, exit nonzero on any finding.
//
//   asfsim_lint [options] <file-or-dir>...
//     --exclude <substr>        skip paths containing <substr> (repeatable)
//     --list-rules              print the rule ids and one-line summaries
//
// Suppression: `// asfsim-lint: allow(<rule>)` on the offending line, or on
// a line of its own directly above it.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

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
      << "discarded-task  (R2) enforced by the compiler, not this tool: Task\n"
      << "       is [[nodiscard]] and the build passes -Werror=unused-result;\n"
      << "       a dropped Task never runs its body.\n"
      << kRuleGlobalAllocInTx
      << "  (R3) guest-thread (coroutine) code in workloads/ or oltp/\n"
      << "       allocating via galloc().alloc/alloc_lines: the global bump\n"
      << "       path hands concurrent transactions adjacent nodes in one\n"
      << "       cache line and fabricates WAW false sharing (DESIGN.md\n"
      << "       §6.9). Use GuestCtx::alloc_local. Also flags raw host heap\n"
      << "       allocation (new/malloc) in coroutines; the per-core\n"
      << "       FrameArena is exempt via an explicit allowlist only.\n"
      << kRuleRawGuestAccess
      << "  (R4) guest-thread code in workloads/ or oltp/ calling\n"
      << "       poke/peek/backing or reinterpret_cast: host-side backdoors\n"
      << "       bypass the caches, the conflict detector, and the\n"
      << "       classifier byte masks. Use GuestCtx typed loads/stores.\n"
      << kRuleNondeterministicSource
      << "  (R5) rand()/srand()/time()/clock()/getenv()/system_clock/\n"
      << "       steady_clock/random_device in simulator-affecting code\n"
      << "       (src/{sim,core,mem,htm,guest,oltp,workloads,fault,stats}):\n"
      << "       results must be a pure function of (config, seed), or the\n"
      << "       JobSpec result cache and reproducibility break.\n"
      << kRuleUnorderedIteration
      << "  (R6) any std::unordered_{map,set,multimap,multiset} in\n"
      << "       simulator-affecting code: iteration order is unspecified\n"
      << "       and varies across stdlib implementations. Use AddrMap,\n"
      << "       std::map/std::set, or a sorted vector.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> excludes;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--exclude") {
      if (i + 1 >= argc) {
        std::cerr << "asfsim_lint: --exclude requires a value\n";
        return 2;
      }
      excludes.emplace_back(argv[++i]);
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: asfsim_lint [--exclude <substr>]... [--list-rules] "
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

  std::vector<Diagnostic> diags;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "asfsim_lint: cannot read " << p.string() << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    for (auto& d : check_file(lex(p.generic_string(), ss.str()))) {
      diags.push_back(std::move(d));
    }
  }

  for (const auto& d : diags) {
    std::cout << d.path << ":" << d.line << ": " << d.rule << ": "
              << d.message << "\n";
  }
  std::cerr << "asfsim_lint: " << paths.size() << " files, " << diags.size()
            << " finding" << (diags.size() == 1 ? "" : "s") << "\n";
  return diags.empty() ? 0 : 1;
}
