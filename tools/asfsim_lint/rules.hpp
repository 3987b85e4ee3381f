// asfsim_lint rule engine: simulator-specific guest-code invariants,
// checked as token walks over the lexer's stream plus one brace-scope pass
// that tells which tokens sit inside a coroutine body.
//
// Rules (see docs/static_analysis.md for the full write-ups):
//   R1 coawait-in-condition    co_await inside an if/while/for/switch header
//                              or a ternary condition (DESIGN.md §7
//                              miscompile)
//   R3 global-alloc-in-tx      guest-thread code in workloads/ or oltp/
//                              allocating via the global bump allocator
//                              instead of GuestCtx::alloc_local (DESIGN.md
//                              §6.9)
//   R4 raw-guest-access        guest-thread code in workloads/ or oltp/
//                              touching guest memory through host-side
//                              backdoors (poke/peek/backing()/
//                              reinterpret_cast) instead of the GuestCtx
//                              typed loads/stores
//   R5 nondeterministic-source rand()/time()/system_clock/getenv/... in
//                              simulator-affecting code — results must be a
//                              pure function of (config, seed)
//   R6 unordered-iteration     any std::unordered_{map,set,multimap,multiset}
//                              in simulator-affecting code — its iteration
//                              order varies across stdlib implementations
//
// R2 (discarded Task) is enforced by the compiler: Task is [[nodiscard]]
// and the build passes -Werror=unused-result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace asfsim_lint {

inline constexpr const char* kRuleCoawaitInCondition = "coawait-in-condition";
inline constexpr const char* kRuleGlobalAllocInTx = "global-alloc-in-tx";
inline constexpr const char* kRuleRawGuestAccess = "raw-guest-access";
inline constexpr const char* kRuleNondeterministicSource =
    "nondeterministic-source";
inline constexpr const char* kRuleUnorderedIteration = "unordered-iteration";

struct Diagnostic {
  std::string path;
  std::uint32_t line;
  std::string rule;
  std::string message;
};

/// True when `path` lies in a directory whose code feeds simulation results
/// (the determinism rules' scope).
bool sim_affecting_path(const std::string& path);

/// Run the rules over one file, sorted by (line, rule).
std::vector<Diagnostic> check_file(const LexedFile& file);

}  // namespace asfsim_lint
