// asfsim_lint AST: the declaration/statement view produced by parser.cpp.
//
// This is a lightweight semantic index over the token stream, not a full
// C++ AST: it records the declarations the rule passes need (struct/class
// fields, function definitions with parameter lists and body extents,
// range-for statements, container-typed variable declarations) and leaves
// expression structure to per-rule token walks over the recorded ranges.
// Every node carries token indices into LexedFile::tokens, so rules and the
// autofixer can always get back to lines and byte offsets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace asfsim_lint {

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// One data member of a struct/class (methods, using-aliases, nested types
/// and static members are deliberately excluded).
struct FieldDecl {
  std::string type_text;  // normalized type spelling ("std::uint32_t", ...)
  std::string name;
  std::uint32_t line = 0;
  std::size_t name_tok = kNpos;
};

struct StructDecl {
  std::string name;
  std::uint32_t line = 0;
  std::size_t body_open = kNpos;   // token index of `{`
  std::size_t body_close = kNpos;  // token index of matching `}`
  std::vector<FieldDecl> fields;
};

struct ParamDecl {
  std::string type_text;
  std::string name;  // empty for unnamed parameters
  bool defaulted = false;
};

/// A function-like definition: free/member function, constructor, or lambda.
struct FunctionDecl {
  std::string name;  // "<lambda>" for lambdas
  std::uint32_t line = 0;
  std::size_t body_open = kNpos;   // token index of `{`
  std::size_t body_close = kNpos;  // token index of matching `}`
  std::vector<ParamDecl> params;
  bool is_coroutine = false;  // body contains co_await/co_return/co_yield
  bool is_lambda = false;
  std::size_t enclosing = kNpos;  // index of enclosing FunctionDecl, if any
};

/// A range-based for statement: `for (<decl> : <expr>) ...`.
struct RangeForStmt {
  std::size_t for_tok = kNpos;    // the `for` keyword
  std::size_t open = kNpos;       // `(`
  std::size_t colon = kNpos;      // the `:` separating decl and range expr
  std::size_t close = kNpos;      // `)`
  std::size_t fn = kNpos;         // enclosing FunctionDecl index
};

/// Any declaration (field, local, parameter) whose declared type names a
/// template container; the determinism pass resolves iterated expressions
/// against these by name.
struct ContainerDecl {
  std::string type_text;  // full spelling incl. template args
  std::string name;
  std::uint32_t line = 0;
};

struct Ast {
  std::vector<StructDecl> structs;
  std::vector<FunctionDecl> functions;
  std::vector<RangeForStmt> range_fors;
  std::vector<ContainerDecl> container_decls;
  /// For each token: index into `functions` of the innermost function body
  /// containing it, or kNpos.
  std::vector<std::size_t> fn_of;

  [[nodiscard]] const FunctionDecl* function_at(std::size_t tok) const {
    if (tok >= fn_of.size() || fn_of[tok] == kNpos) return nullptr;
    return &functions[fn_of[tok]];
  }
  [[nodiscard]] bool in_coroutine(std::size_t tok) const {
    const FunctionDecl* f = function_at(tok);
    return f != nullptr && f->is_coroutine;
  }
};

}  // namespace asfsim_lint
