// Parser for the concrete syntax of Xreg / X.
//
//   query  := union
//   union  := seq ('|' seq)*
//   seq    := ['//'] step (('/' | '//') step)*
//   step   := primary ('[' filter ']' | '*')*
//   primary:= '.' | name | '*' | '(' union ')'
//   filter := orf;  orf := andf ('or' andf)*;  andf := notf ('and' notf)*
//   notf   := 'not' '(' orf ')' | atom
//   atom   := 'text()' '=' string
//           | 'position()' '=' number
//           | path ['/text()' '=' string]       -- path existence / text test
//           | '(' orf ')'                        -- boolean grouping
//
// '//' is desugared to /(*)*/ at parse time (so X queries become Xreg with
// only wildcard stars). `and`, `or`, `not` are reserved words and cannot be
// element names in queries. Strings use single or double quotes.

#ifndef SMOQE_XPATH_PARSER_H_
#define SMOQE_XPATH_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xpath/ast.h"

namespace smoqe::xpath {

/// The deepest query the parser accepts: at most this many '(' and '['
/// open at any point of the text, and a syntax tree at most this many
/// levels high. Deeper input is a kParseError -- the parser, the rewriter,
/// the MFA compiler and the syntax tree's own destructor each recurse once
/// per level, so an unbounded query could exhaust the stack of whichever
/// thread handles it. Generous for real queries, whose depth is in the tens.
inline constexpr int kMaxQueryDepth = 256;

StatusOr<PathPtr> ParseQuery(std::string_view input);

/// Parses a bare filter expression (used by tests).
StatusOr<FilterPtr> ParseFilterExpr(std::string_view input);

}  // namespace smoqe::xpath

#endif  // SMOQE_XPATH_PARSER_H_
