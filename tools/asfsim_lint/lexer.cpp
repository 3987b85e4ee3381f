#include "lexer.hpp"

#include <cctype>
#include <cstddef>

namespace asfsim_lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parse suppression directives out of one comment body and record them.
/// Grammar:  asfsim-lint: allow(rule[, rule...])
void parse_directives(const std::string& comment, std::uint32_t line,
                      bool code_on_line, Suppressions& sup) {
  const std::string kTag = "asfsim-lint:";
  const std::size_t at = comment.find(kTag);
  if (at == std::string::npos) return;
  std::size_t i = at + kTag.size();
  while (i < comment.size()) {
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i])) != 0) {
      ++i;
    }
    if (comment.compare(i, 6, "allow(") != 0) break;
    i += 6;
    const std::size_t close = comment.find(')', i);
    if (close == std::string::npos) break;
    // Split the argument list on commas/space. A directive trailing code
    // suppresses its own line; a stand-alone directive line suppresses the
    // next line.
    std::string rule;
    for (std::size_t j = i; j <= close; ++j) {
      const char c = j < close ? comment[j] : ',';
      if (c == ',' || std::isspace(static_cast<unsigned char>(c)) != 0) {
        if (!rule.empty()) {
          sup.by_line[code_on_line ? line : line + 1].insert(rule);
          rule.clear();
        }
      } else {
        rule.push_back(c);
      }
    }
    i = close + 1;
  }
}

}  // namespace

LexedFile lex(std::string path, const std::string& src) {
  LexedFile out;
  out.path = std::move(path);
  std::uint32_t line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool code_on_line = false;  // any token emitted on the current line yet

  auto newline = [&] {
    ++line;
    code_on_line = false;
  };
  auto emit = [&](TokKind kind, std::string text, std::uint32_t at_line) {
    out.tokens.push_back({kind, std::move(text), at_line});
    code_on_line = true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: swallow to end of line (incl. continuations),
    // so `#include <x>` and macro bodies never reach the rule engine.
    if (c == '#' && !code_on_line) {
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          newline();
          ++i;
        }
        ++i;
      }
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      parse_directives(src.substr(start, i - start), line, code_on_line,
                       out.suppressions);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::uint32_t at = line;
      const bool had_code = code_on_line;
      std::string body;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') newline();
        body.push_back(src[i]);
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      parse_directives(body, at, had_code, out.suppressions);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string close = ")" + delim + "\"";
      const std::size_t end = src.find(close, j);
      const std::size_t stop = end == std::string::npos ? n : end + close.size();
      const std::uint32_t at = line;
      for (std::size_t k = i; k < stop; ++k) {
        if (src[k] == '\n') newline();
      }
      emit(TokKind::kString, "R\"...\"", at);
      i = stop;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string text(1, c);
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          text.push_back(src[i++]);
        } else if (src[i] == '\n') {
          break;  // unterminated; tolerate
        }
        text.push_back(src[i++]);
      }
      if (i < n && src[i] == quote) {
        text.push_back(quote);
        ++i;
      }
      emit(quote == '"' ? TokKind::kString : TokKind::kChar, std::move(text),
           line);
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_cont(src[j])) ++j;
      emit(TokKind::kIdent, src.substr(i, j - i), line);
      i = j;
      continue;
    }
    // Number (incl. hex, digit separators, suffixes; precision not needed).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_cont(src[j]) || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      emit(TokKind::kNumber, src.substr(i, j - i), line);
      i = j;
      continue;
    }
    // Punctuation: group the multi-char operators the rules care about.
    std::string p(1, c);
    auto two = [&](const char* op) {
      return i + 1 < n && src[i] == op[0] && src[i + 1] == op[1];
    };
    if (two("->") || two("::") || two("==") || two("!=") || two("<=") ||
        two(">=") || two("&&") || two("||") || two("+=") || two("-=") ||
        two("*=") || two("/=") || two("|=") || two("&=") || two("^=") ||
        two("<<") || two(">>") || two("++") || two("--")) {
      p = src.substr(i, 2);
    }
    i += p.size();
    emit(TokKind::kPunct, std::move(p), line);
  }
  return out;
}

}  // namespace asfsim_lint
