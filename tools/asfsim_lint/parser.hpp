// asfsim_lint parser: recursive-descent declaration/statement parsing over
// the lexer's token stream (see ast.hpp for what it produces and what it
// deliberately leaves out).
#pragma once

#include "ast.hpp"
#include "lexer.hpp"

namespace asfsim_lint {

/// Build the semantic index for one file. Never fails: unparseable regions
/// simply contribute no declarations (the tool must stay usable on any
/// source the lexer accepts).
Ast parse(const LexedFile& file);

/// Shared token helpers (parser, rules).
inline bool tok_is(const Token& t, const char* s) { return t.text == s; }
inline bool tok_ident(const Token& t) { return t.kind == TokKind::kIdent; }

/// Token index of the `)` matching the `(` at `open` (forward walk over
/// parens only), or kNpos.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open);

/// Token index of the `(` matching the `)` at `close` (backward walk), or
/// kNpos.
std::size_t match_paren_back(const std::vector<Token>& toks,
                             std::size_t close);

}  // namespace asfsim_lint
