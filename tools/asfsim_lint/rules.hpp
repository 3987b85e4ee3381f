// asfsim_lint rule engine: simulator-specific guest-code invariants,
// checked over the AST/CFG built by parser.cpp and cfg.cpp.
//
// Rules (see docs/static_analysis.md for the full write-ups):
//   R1 coawait-in-condition    co_await inside an if/while/for/switch header
//                              or a ternary condition (DESIGN.md §7
//                              miscompile); detected on CFG condition nodes
//   R2 discarded-task          call to a Task-returning function whose result
//                              is neither co_awaited nor stored
//   R3 global-alloc-in-tx      guest-thread code in workloads/ allocating via
//                              the global bump allocator instead of
//                              GuestCtx::alloc_local (DESIGN.md §6.9)
//   R4 raw-guest-access        guest-thread code in workloads/ touching guest
//                              memory through host-side backdoors (poke/peek/
//                              backing()/reinterpret_cast) instead of the
//                              GuestCtx typed loads/stores
//   R5 nondeterministic-source rand()/time()/system_clock/getenv/... in
//                              simulator-affecting code — results must be a
//                              pure function of (config, seed)
//   R6 unordered-iteration     range-for over an unordered container in
//                              simulator-affecting code — iteration order
//                              varies across stdlib implementations and runs
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast.hpp"
#include "lexer.hpp"

namespace asfsim_lint {

inline constexpr const char* kRuleCoawaitInCondition = "coawait-in-condition";
inline constexpr const char* kRuleDiscardedTask = "discarded-task";
inline constexpr const char* kRuleGlobalAllocInTx = "global-alloc-in-tx";
inline constexpr const char* kRuleRawGuestAccess = "raw-guest-access";
inline constexpr const char* kRuleNondeterministicSource =
    "nondeterministic-source";
inline constexpr const char* kRuleUnorderedIteration = "unordered-iteration";

/// One textual edit in the original source bytes: replace [begin, end) with
/// `replacement`. Edits attached to one Diagnostic never overlap each other.
struct FixEdit {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string replacement;
};

struct Diagnostic {
  std::string path;
  std::uint32_t line;
  std::string rule;
  std::string message;
  std::string fix_hint;        // optional; shown under --fix-hints
  std::vector<FixEdit> fixes;  // optional; applied by --fix
};

/// One file after lexing + parsing; the unit every pass consumes.
struct ParsedFile {
  LexedFile file;
  Ast ast;
};

/// Functions declared/defined with a Task<...> return type in any scanned
/// file: name -> set of accepted call-site arities (declared parameter
/// counts, including the shorter forms allowed by defaulted parameters).
/// Arity is what disambiguates guest-DS methods from host-container
/// homonyms (GHeap::push(GuestCtx&, k) vs std::queue::push(v)).
using TaskFunctionMap =
    std::unordered_map<std::string, std::unordered_set<int>>;

/// Cross-file context built once over the whole scan set.
struct RuleContext {
  TaskFunctionMap task_fns;
  /// Container-typed declarations by name (fields, locals, parameters);
  /// values are the declared type spellings. The determinism pass resolves
  /// iterated expressions against these.
  std::unordered_map<std::string, std::vector<std::string>> containers;
};

RuleContext collect_context(const std::vector<ParsedFile>& files);

/// True when `path` lies in a directory whose code feeds simulation results
/// (the determinism rules' scope).
bool sim_affecting_path(const std::string& path);

/// Run rules R1-R6 over one file. `ctx` comes from collect_context over the
/// full scan set.
std::vector<Diagnostic> check_file(const ParsedFile& pf,
                                   const RuleContext& ctx);

}  // namespace asfsim_lint
