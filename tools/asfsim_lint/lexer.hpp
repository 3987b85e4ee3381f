// asfsim_lint lexer: a minimal, dependency-free C++ tokenizer.
//
// Produces a flat token stream (identifiers, punctuation, literals) with
// line numbers, plus the per-line suppression directives parsed out of
// comments. This is deliberately NOT a C++ front end: the rules
// (rules.cpp) are token walks plus one brace-scope pass, which is enough
// for the simulator's guest-code invariants and keeps the tool buildable
// with nothing but the standard library.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace asfsim_lint {

enum class TokKind : std::uint8_t {
  kIdent,   // identifiers and keywords (co_await, if, ...)
  kPunct,   // operators and punctuation, one logical op per token
  kNumber,  // numeric literal
  kString,  // string literal (text is the raw spelling)
  kChar,    // character literal
};

struct Token {
  TokKind kind;
  std::string text;
  std::uint32_t line;
};

/// Suppressions collected from `// asfsim-lint: allow(rule[, rule...])`
/// comments. A directive on a code line suppresses that line; a directive
/// on a line of its own suppresses the next line.
struct Suppressions {
  std::map<std::uint32_t, std::set<std::string>> by_line;

  [[nodiscard]] bool allows(const std::string& rule, std::uint32_t line) const {
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) != 0;
  }
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  Suppressions suppressions;
};

/// Tokenize `source` (the contents of `path`). Comments and whitespace are
/// consumed; suppression directives inside comments are recorded. Handles
/// line/block comments, string/char literals with escapes, and raw string
/// literals; preprocessor directives are skipped line-wise (so `#include
/// <vector>` never looks like comparison operators).
LexedFile lex(std::string path, const std::string& source);

}  // namespace asfsim_lint
