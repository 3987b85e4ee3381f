#include "rules.hpp"

#include <algorithm>
#include <cstddef>
#include <set>

namespace asfsim_lint {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is(const Token& t, const char* s) { return t.text == s; }
bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

/// Token index of the `)` matching the `(` at `open`, or kNpos.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (is(toks[k], "(")) ++depth;
    if (is(toks[k], ")") && --depth == 0) return k;
  }
  return kNpos;
}

/// Token index of the `(` matching the `)` at `close`, or kNpos.
std::size_t match_paren_back(const std::vector<Token>& toks,
                             std::size_t close) {
  int depth = 0;
  for (std::size_t k = close + 1; k-- > 0;) {
    if (is(toks[k], ")")) ++depth;
    if (is(toks[k], "(") && --depth == 0) return k;
  }
  return kNpos;
}

// ---- coroutine scopes -------------------------------------------------------

// Keywords that, when hit while walking back from a `{`, prove the brace is
// not a function body (type/namespace/control/label contexts).
const std::set<std::string> kNonFunctionKeywords = {
    "struct",   "class",    "union",  "enum",    "namespace", "else",
    "do",       "try",      "export", "extern",  "return",    "co_return",
    "co_yield", "co_await", "if",     "while",   "for",       "switch",
    "case",     "default",  "public", "private", "protected", "concept",
    "requires"};

const std::set<std::string> kControlIntro = {"if", "while", "for", "switch",
                                             "catch"};

// Tokens skipped while walking back from a `{` across a trailing return
// type / cv-qualifier run, looking for the parameter list's `)`.
bool skippable_before_body(const Token& t) {
  if (is_ident(t)) return kNonFunctionKeywords.count(t.text) == 0;
  static const std::set<std::string> kPunct = {"::", "<",  ">",  ">>", ",",
                                               "*",  "&",  "&&", "->"};
  return kPunct.count(t.text) != 0;
}

/// Does the `{` at `b` open a function-like body (free/member function,
/// constructor, or lambda)? Pure token heuristic: walk back over a trailing
/// return type and qualifiers to a capture list `]` or a parameter list
/// `(...)` that is not a control-statement header.
bool opens_function_body(const std::vector<Token>& toks, std::size_t b) {
  if (b == 0) return false;
  std::size_t k = b - 1;
  for (int steps = 0; steps < 24; ++steps) {
    const Token& t = toks[k];
    if (is(t, "]")) return true;  // capture list directly: `[&] {`
    if (is(t, ")")) {
      const std::size_t open = match_paren_back(toks, k);
      if (open == kNpos) return false;
      if (open == 0) return true;
      std::size_t p = open - 1;
      // `if constexpr (...)`: the intro keyword sits one further back.
      if (is(toks[p], "constexpr") && p > 0) --p;
      if (is_ident(toks[p]) && kControlIntro.count(toks[p].text) != 0) {
        return false;
      }
      // `noexcept(...)` / `requires(...)` trail a declarator: keep walking.
      if (is(toks[p], "noexcept") || is(toks[p], "requires")) {
        k = p;
        continue;
      }
      return is_ident(toks[p]) || is(toks[p], "]") || is(toks[p], ">") ||
             is(toks[p], ">>");
    }
    if (!skippable_before_body(t) || k == 0) return false;
    --k;
  }
  return false;
}

/// For each token: is its innermost enclosing function or lambda body a
/// coroutine, i.e. does that body hold co_await/co_return/co_yield at its
/// own level (not inside a nested lambda)?
std::vector<bool> coroutine_scopes(const std::vector<Token>& toks) {
  std::vector<std::size_t> fn_of(toks.size(), kNpos);  // innermost body
  std::vector<bool> is_coroutine;                      // per body
  std::vector<bool> block_is_fn;                       // open-brace stack
  std::vector<std::size_t> fn_stack;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is(toks[i], "{")) {
      const bool fn = opens_function_body(toks, i);
      block_is_fn.push_back(fn);
      if (fn) {
        fn_stack.push_back(is_coroutine.size());
        is_coroutine.push_back(false);
      }
    } else if (is(toks[i], "}") && !block_is_fn.empty()) {
      if (block_is_fn.back() && !fn_stack.empty()) fn_stack.pop_back();
      block_is_fn.pop_back();
    }
    fn_of[i] = fn_stack.empty() ? kNpos : fn_stack.back();
    if (fn_of[i] != kNpos && (is(toks[i], "co_await") ||
                              is(toks[i], "co_return") ||
                              is(toks[i], "co_yield"))) {
      is_coroutine[fn_of[i]] = true;
    }
  }
  std::vector<bool> out(toks.size(), false);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    out[i] = fn_of[i] != kNpos && is_coroutine[fn_of[i]];
  }
  return out;
}

// ---- R5/R6 vocabularies ---------------------------------------------------

// Clock/entropy TYPES: any mention in sim-affecting code is a finding.
const std::set<std::string> kNondetTypes = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock"};

// Banned FUNCTIONS: flagged only as calls (`name(`), unqualified or
// std::-qualified, never as members (`obj.time(...)` is someone else's API).
const std::set<std::string> kNondetCalls = {
    "rand",   "srand",        "time",         "clock",
    "getenv", "gettimeofday", "clock_gettime"};

// Containers whose iteration order is unspecified.
const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

class Checker {
 public:
  explicit Checker(const LexedFile& file)
      : file_(file), toks_(file.tokens), in_coro_(coroutine_scopes(toks_)) {}

  std::vector<Diagnostic> run() {
    rule_coawait_in_condition();
    if (path_contains(file_.path, "workloads") ||
        path_contains(file_.path, "oltp")) {
      rule_global_alloc_in_tx();
      rule_raw_guest_access();
    }
    if (sim_affecting_path(file_.path)) {
      rule_nondeterministic_source();
      rule_unordered_container();
    }
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(diags_);
  }

 private:
  void report(const char* rule, std::size_t tok, std::string message) {
    const std::uint32_t line = toks_[tok].line;
    if (file_.suppressions.allows(rule, line)) return;
    // One report per (rule, line) is enough.
    for (const auto& d : diags_) {
      if (d.line == line && d.rule == rule) return;
    }
    diags_.push_back({file_.path, line, rule, std::move(message)});
  }

  // ---- R1: co_await inside a condition expression -------------------------
  //
  // The GCC 12 miscompile (DESIGN.md §7, pinned by
  // tests/test_compiler_workaround.cpp): when a co_await appears inside a
  // condition expression whose controlled branch also suspends, the frame's
  // resume index is corrupted and the first resume silently runs the
  // destroyer instead of the body — observed as a kernel "deadlock" at -O0
  // and SIGILL at -O2. The safe shape hoists the awaited value into a named
  // local before branching, so we ban co_await in EVERY condition context,
  // whether or not the branch suspends today (the branch body is one edit
  // away from suspending). `do ... while (...)` is covered by its `while`.
  void rule_coawait_in_condition() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i]) || kControlIntro.count(toks_[i].text) == 0 ||
          is(toks_[i], "catch")) {
        continue;
      }
      std::size_t open = i + 1;
      if (open < toks_.size() && is(toks_[open], "constexpr")) ++open;
      if (open >= toks_.size() || !is(toks_[open], "(")) continue;
      const std::size_t close = match_paren(toks_, open);
      if (close == kNpos) continue;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (!is(toks_[k], "co_await")) continue;
        report(kRuleCoawaitInCondition, k,
               "co_await inside a '" + toks_[i].text +
                   "' condition — GCC 12 corrupts the coroutine frame when "
                   "the controlled branch also suspends (DESIGN.md §7); "
                   "hoist the awaited value into a named local first");
      }
    }
    // Ternary conditions: a co_await whose full expression meets a `?` at
    // the same nesting depth before the statement ends.
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is(toks_[i], "co_await")) continue;
      int depth = 0;
      for (std::size_t k = i + 1; k < toks_.size(); ++k) {
        const Token& t = toks_[k];
        if (is(t, "(") || is(t, "[") || is(t, "{")) ++depth;
        if (is(t, ")") || is(t, "]") || is(t, "}")) --depth;
        if (depth < 0) break;
        if (depth == 0 &&
            (is(t, ";") || is(t, ",") || is(t, ":") || is(t, "="))) {
          break;
        }
        if (depth == 0 && is(t, "?")) {
          report(kRuleCoawaitInCondition, i,
                 "co_await in a ternary condition — same GCC 12 frame "
                 "corruption as branching on an inline co_await "
                 "(DESIGN.md §7); hoist the awaited value first");
          break;
        }
      }
    }
  }

  // ---- R3: global bump allocation from guest-thread code ------------------
  //
  // DESIGN.md §6.9: a single global bump allocator hands concurrent
  // transactions adjacent nodes in the same cache line, and their
  // initialization stores alone fabricate write-write false sharing that
  // drowns the real conflict signal. Guest-thread (coroutine) code in
  // workloads must allocate from the per-core pools via
  // GuestCtx::alloc_local; setup()/validate() run at host time on one
  // thread and may use the global path freely.
  void rule_global_alloc_in_tx() {
    for (std::size_t i = 0; i + 4 < toks_.size(); ++i) {
      if (!is(toks_[i], "galloc") || !is(toks_[i + 1], "(") ||
          !is(toks_[i + 2], ")") || !is(toks_[i + 3], ".")) {
        continue;
      }
      const std::string& m = toks_[i + 4].text;
      if (m != "alloc" && m != "alloc_lines") continue;
      if (!in_coro_[i]) continue;
      report(kRuleGlobalAllocInTx, i,
             "guest-thread code allocates via the global bump allocator "
             "(galloc()." +
                 m +
                 ") — concurrent transactions get adjacent nodes in one "
                 "line and fabricate WAW false sharing (DESIGN.md §6.9); "
                 "use ctx.alloc_local(size, align)");
    }
    // Raw host allocation in guest-thread code is the same hazard from the
    // host side: heap nodes allocated mid-coroutine are invisible to the
    // simulator AND non-deterministic in address. The ONLY sanctioned host
    // allocation under a guest frame is the per-core coroutine-frame arena
    // (src/sim/frame_arena.hpp), which Task<> promises route operator new
    // through; at a call site that machinery appears as placement-new into
    // arena storage. The exemption is this explicit allowlist of arena
    // entry-point names — never a suppression, which would also hide
    // genuine global allocations
    // (tests/lint_fixtures/workloads/r3_arena_*.cpp pin both directions).
    static constexpr const char* kR3ArenaAllowlist[] = {"frame_arena",
                                                        "FrameArena"};
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!is_ident(toks_[i])) continue;
      const std::string& t = toks_[i].text;
      const bool is_new = t == "new";
      const bool is_c_alloc =
          (t == "malloc" || t == "calloc" || t == "realloc") &&
          is(toks_[i + 1], "(");
      if (!is_new && !is_c_alloc) continue;
      if (!in_coro_[i]) continue;
      if (is_new && is(toks_[i + 1], "(")) {
        // Placement-new: exempt iff the placement argument goes through an
        // allowlisted arena entry point.
        bool allowlisted = false;
        const std::size_t close = match_paren(toks_, i + 1);
        for (std::size_t j = i + 2; j < std::min(close, toks_.size()); ++j) {
          for (const char* name : kR3ArenaAllowlist) {
            allowlisted = allowlisted || is(toks_[j], name);
          }
        }
        if (allowlisted) continue;
      }
      report(kRuleGlobalAllocInTx, i,
             "guest-thread code allocates from the host heap (" + t +
                 ") — the address is host-nondeterministic and the node "
                 "is invisible to the simulator (DESIGN.md §6.9); only "
                 "the per-core frame arena is exempt");
    }
  }

  // ---- R4: host-side backdoor access to guest memory ----------------------
  //
  // Machine::poke/peek and BackingStore read/write bypass the caches, the
  // conflict detector, and the classifier's byte masks entirely — legal for
  // single-threaded setup()/validate(), but inside guest-thread code they
  // silently exempt accesses from conflict detection and corrupt the
  // paper's conflict counts. reinterpret_cast of simulated addresses into
  // host pointers is never meaningful in a workload.
  void rule_raw_guest_access() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i])) continue;
      const std::string& name = toks_[i].text;
      if (name == "reinterpret_cast") {
        report(kRuleRawGuestAccess, i,
               "reinterpret_cast in a workload — guest memory has no host "
               "pointer; use GuestCtx typed loads/stores");
        continue;
      }
      if (name != "poke" && name != "peek" && name != "backing") continue;
      if (i + 1 >= toks_.size() || !is(toks_[i + 1], "(")) continue;
      if (i == 0 || !(is(toks_[i - 1], ".") || is(toks_[i - 1], "->"))) {
        continue;
      }
      if (!in_coro_[i]) continue;
      report(kRuleRawGuestAccess, i,
             "guest-thread code calls '" + name +
                 "' — host-side backdoor access bypasses the caches, the "
                 "conflict detector, and the classifier byte masks; use "
                 "GuestCtx typed loads/stores");
    }
  }

  // ---- R5: non-deterministic sources in simulator-affecting code ----------
  //
  // Every simulation result must be a pure function of (SimConfig, seed):
  // that is what makes the JobSpec content-hash cache sound and runs
  // reproducible across machines. Wall-clock reads, C PRNGs, entropy
  // devices and environment lookups in sim-affecting directories silently
  // break both. Host-side tooling (runner/, harness/, trace/) is out of
  // scope; genuinely wall-clock code (watchdog escape hatches) carries an
  // explicit suppression with its justification.
  void rule_nondeterministic_source() {
    const std::string why =
        "' in simulator-affecting code — results must be a pure function "
        "of (config, seed); clock/entropy reads poison the JobSpec result "
        "cache and reproducibility";
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i])) continue;
      const std::string& name = toks_[i].text;
      if (kNondetTypes.count(name) != 0) {
        report(kRuleNondeterministicSource, i, "'" + name + why);
        continue;
      }
      if (kNondetCalls.count(name) == 0) continue;
      if (i + 1 >= toks_.size() || !is(toks_[i + 1], "(")) continue;
      if (i > 0) {
        const Token& p = toks_[i - 1];
        if (is(p, ".") || is(p, "->")) continue;  // member call: not libc
        // Qualified: only std::/global-:: spellings are the libc ones.
        if (is(p, "::") && i >= 2 && is_ident(toks_[i - 2]) &&
            toks_[i - 2].text != "std") {
          continue;
        }
        // `ScopedSimClock clock(...)` declares a variable named `clock`;
        // a preceding type name or declarator punctuation is not a call
        // context (but `return time(nullptr)` still is).
        static const std::set<std::string> kCallIntro = {
            "return", "co_return", "co_yield", "else", "do", "case"};
        if (is_ident(p) && kCallIntro.count(p.text) == 0) continue;
        if (is(p, ">") || is(p, ">>") || is(p, "&") || is(p, "*")) continue;
      }
      report(kRuleNondeterministicSource, i, "call to '" + name + why);
    }
  }

  // ---- R6: unordered containers in simulator-affecting code ---------------
  //
  // unordered_map/set iteration order is unspecified and differs across
  // stdlib implementations, hash seeds, and insertion histories. Rather
  // than resolving which loops walk such a container, the container itself
  // is banned here: AddrMap (src/sim/addr_map.hpp) is the deterministic
  // hash map for address keys; std::map/std::set or a sorted vector serve
  // everything else.
  void rule_unordered_container() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i]) || kUnorderedTypes.count(toks_[i].text) == 0) {
        continue;
      }
      report(kRuleUnorderedIteration, i,
             "std::" + toks_[i].text +
                 " in simulator-affecting code — its iteration order is "
                 "unspecified and varies across stdlib implementations; use "
                 "AddrMap, std::map/std::set, or a sorted vector");
    }
  }

  const LexedFile& file_;
  const std::vector<Token>& toks_;
  const std::vector<bool> in_coro_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

bool sim_affecting_path(const std::string& path) {
  static const std::set<std::string> kScopes = {
      "sim",  "core",      "mem",   "htm",  "guest",
      "oltp", "workloads", "fault", "stats"};
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t slash = path.find('/', begin);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (kScopes.count(path.substr(begin, end - begin)) != 0) return true;
    if (slash == std::string::npos) break;
    begin = slash + 1;
  }
  return false;
}

std::vector<Diagnostic> check_file(const LexedFile& file) {
  return Checker(file).run();
}

}  // namespace asfsim_lint
