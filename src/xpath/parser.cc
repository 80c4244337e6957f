#include "xpath/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

namespace smoqe::xpath {

namespace {

enum class Tok : uint8_t {
  kName, kString, kNumber,
  kSlash, kDSlash, kPipe, kStar, kLParen, kRParen, kLBracket, kRBracket,
  kEq, kDot, kAnd, kOr, kNot, kTextFn, kPosFn, kEof,
};

struct Token {
  Tok kind;
  std::string text;  // kName/kString/kNumber payload
  size_t offset;
};

StatusOr<std::vector<Token>> Lex(std::string_view in) {
  std::vector<Token> toks;
  size_t i = 0;
  int open = 0;  // '(' and '[' not yet closed: bounds the parser's recursion
  auto err = [&](std::string what) {
    return Status::ParseError("query: " + what + " (offset " + std::to_string(i) + ")");
  };
  while (i < in.size()) {
    char c = in[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < in.size() && (std::isalnum(static_cast<unsigned char>(in[j])) ||
                               in[j] == '_' || in[j] == '-')) {
        ++j;
      }
      std::string name(in.substr(i, j - i));
      i = j;
      if (name == "and") { toks.push_back({Tok::kAnd, "", start}); continue; }
      if (name == "or") { toks.push_back({Tok::kOr, "", start}); continue; }
      if (name == "not") { toks.push_back({Tok::kNot, "", start}); continue; }
      if (name == "text" || name == "position") {
        size_t j2 = i;
        while (j2 < in.size() && std::isspace(static_cast<unsigned char>(in[j2]))) ++j2;
        if (j2 + 1 < in.size() && in[j2] == '(' && in[j2 + 1] == ')') {
          i = j2 + 2;
          toks.push_back({name == "text" ? Tok::kTextFn : Tok::kPosFn, "", start});
          continue;
        }
      }
      toks.push_back({Tok::kName, std::move(name), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < in.size() && std::isdigit(static_cast<unsigned char>(in[j]))) ++j;
      toks.push_back({Tok::kNumber, std::string(in.substr(i, j - i)), start});
      i = j;
      continue;
    }
    if (c == '\'' || c == '"') {
      size_t j = i + 1;
      while (j < in.size() && in[j] != c) ++j;
      if (j >= in.size()) return err("unterminated string literal");
      toks.push_back({Tok::kString, std::string(in.substr(i + 1, j - i - 1)), start});
      i = j + 1;
      continue;
    }
    switch (c) {
      case '/':
        if (i + 1 < in.size() && in[i + 1] == '/') {
          toks.push_back({Tok::kDSlash, "", start});
          i += 2;
        } else {
          toks.push_back({Tok::kSlash, "", start});
          ++i;
        }
        continue;
      case '|': toks.push_back({Tok::kPipe, "", start}); ++i; continue;
      case '*': toks.push_back({Tok::kStar, "", start}); ++i; continue;
      case '(':
      case '[':
        if (++open > kMaxQueryDepth) {
          return err("nested deeper than " + std::to_string(kMaxQueryDepth) +
                     " levels");
        }
        toks.push_back({c == '(' ? Tok::kLParen : Tok::kLBracket, "", start});
        ++i;
        continue;
      case ')':
      case ']':
        if (open > 0) --open;
        toks.push_back({c == ')' ? Tok::kRParen : Tok::kRBracket, "", start});
        ++i;
        continue;
      case '=': toks.push_back({Tok::kEq, "", start}); ++i; continue;
      case '.': toks.push_back({Tok::kDot, "", start}); ++i; continue;
      default:
        return err(std::string("unexpected character '") + c + "'");
    }
  }
  toks.push_back({Tok::kEof, "", in.size()});
  return toks;
}

// A parsed subtree with the height of its syntax tree.
template <typename Ptr>
struct Parsed {
  Ptr node;
  int height = 0;
};
using ParsedPath = Parsed<PathPtr>;
using ParsedFilter = Parsed<FilterPtr>;

class QueryParser {
 public:
  explicit QueryParser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  StatusOr<PathPtr> ParseWholeQuery() {
    SMOQE_ASSIGN_OR_RETURN(ParsedPath p, ParseUnion());
    if (Peek() != Tok::kEof) return Err("trailing input after query");
    return p.node;
  }

  StatusOr<FilterPtr> ParseWholeFilter() {
    SMOQE_ASSIGN_OR_RETURN(ParsedFilter f, ParseOrF());
    if (Peek() != Tok::kEof) return Err("trailing input after filter");
    return f.node;
  }

 private:
  Tok Peek(size_t ahead = 0) const {
    size_t i = ti_ + ahead;
    return i < toks_.size() ? toks_[i].kind : Tok::kEof;
  }
  const Token& Cur() const { return toks_[ti_]; }
  void Advance() { ++ti_; }

  bool Consume(Tok t) {
    if (Peek() != t) return false;
    Advance();
    return true;
  }

  Status Err(std::string what) const {
    return Status::ParseError("query: " + what + " (offset " +
                              std::to_string(Cur().offset) + ")");
  }

  // `node`, built directly above children whose tallest is `below` high --
  // unless that makes the syntax tree taller than kMaxQueryDepth. Long
  // step chains, unions and repeated stars grow the tree without nesting
  // the text; rejecting them here means no tree past the bound is built.
  template <typename Ptr>
  StatusOr<Parsed<Ptr>> Above(Ptr node, int below) const {
    if (below >= kMaxQueryDepth) {
      return Err("syntax tree deeper than " + std::to_string(kMaxQueryDepth) +
                 " levels");
    }
    return Parsed<Ptr>{std::move(node), below + 1};
  }

  StatusOr<ParsedPath> ParseUnion() {
    SMOQE_ASSIGN_OR_RETURN(ParsedPath a, ParseSeq());
    while (Consume(Tok::kPipe)) {
      SMOQE_ASSIGN_OR_RETURN(ParsedPath b, ParseSeq());
      SMOQE_ASSIGN_OR_RETURN(a, Above(UnionOf(a.node, b.node),
                                      std::max(a.height, b.height)));
    }
    return a;
  }

  StatusOr<ParsedPath> ParseSeq() {
    ParsedPath a;
    if (Consume(Tok::kDSlash)) {
      SMOQE_ASSIGN_OR_RETURN(ParsedPath first, ParseStep());
      // (*)* below the Seq: two levels.
      SMOQE_ASSIGN_OR_RETURN(a, Above(Seq(DescendantOrSelf(), first.node),
                                      std::max(2, first.height)));
    } else {
      SMOQE_ASSIGN_OR_RETURN(a, ParseStep());
    }
    for (;;) {
      if (Peek() == Tok::kSlash && Peek(1) == Tok::kTextFn) {
        // Leave `/text() = 'c'` for the enclosing filter atom.
        break;
      }
      if (Consume(Tok::kSlash)) {
        SMOQE_ASSIGN_OR_RETURN(ParsedPath b, ParseStep());
        SMOQE_ASSIGN_OR_RETURN(
            a, Above(Seq(a.node, b.node), std::max(a.height, b.height)));
      } else if (Consume(Tok::kDSlash)) {
        SMOQE_ASSIGN_OR_RETURN(ParsedPath b, ParseStep());
        SMOQE_ASSIGN_OR_RETURN(
            a, Above(Seq(Seq(a.node, DescendantOrSelf()), b.node),
                     std::max(std::max(a.height, 2) + 1, b.height)));
      } else {
        break;
      }
    }
    return a;
  }

  StatusOr<ParsedPath> ParseStep() {
    SMOQE_ASSIGN_OR_RETURN(ParsedPath p, ParsePrimary());
    for (;;) {
      if (Consume(Tok::kLBracket)) {
        SMOQE_ASSIGN_OR_RETURN(ParsedFilter f, ParseOrF());
        if (!Consume(Tok::kRBracket)) return Err("expected ']'");
        SMOQE_ASSIGN_OR_RETURN(
            p, Above(WithFilter(p.node, f.node), std::max(p.height, f.height)));
      } else if (Consume(Tok::kStar)) {
        SMOQE_ASSIGN_OR_RETURN(p, Above(Star(p.node), p.height));
      } else {
        break;
      }
    }
    return p;
  }

  StatusOr<ParsedPath> ParsePrimary() {
    switch (Peek()) {
      case Tok::kDot:
        Advance();
        return ParsedPath{Eps(), 1};
      case Tok::kName: {
        ParsedPath p{Label(Cur().text), 1};
        Advance();
        return p;
      }
      case Tok::kStar:
        Advance();
        return ParsedPath{Wildcard(), 1};
      case Tok::kLParen: {
        Advance();
        SMOQE_ASSIGN_OR_RETURN(ParsedPath p, ParseUnion());
        if (!Consume(Tok::kRParen)) return Err("expected ')'");
        return p;
      }
      default:
        return Err("expected a path step");
    }
  }

  StatusOr<ParsedFilter> ParseOrF() {
    SMOQE_ASSIGN_OR_RETURN(ParsedFilter a, ParseAndF());
    while (Consume(Tok::kOr)) {
      SMOQE_ASSIGN_OR_RETURN(ParsedFilter b, ParseAndF());
      SMOQE_ASSIGN_OR_RETURN(
          a, Above(FOr(a.node, b.node), std::max(a.height, b.height)));
    }
    return a;
  }

  StatusOr<ParsedFilter> ParseAndF() {
    SMOQE_ASSIGN_OR_RETURN(ParsedFilter a, ParseNotF());
    while (Consume(Tok::kAnd)) {
      SMOQE_ASSIGN_OR_RETURN(ParsedFilter b, ParseNotF());
      SMOQE_ASSIGN_OR_RETURN(
          a, Above(FAnd(a.node, b.node), std::max(a.height, b.height)));
    }
    return a;
  }

  StatusOr<ParsedFilter> ParseNotF() {
    if (Consume(Tok::kNot)) {
      if (!Consume(Tok::kLParen)) return Err("expected '(' after 'not'");
      SMOQE_ASSIGN_OR_RETURN(ParsedFilter f, ParseOrF());
      if (!Consume(Tok::kRParen)) return Err("expected ')' after 'not(...'");
      return Above(FNot(f.node), f.height);
    }
    return ParseAtomF();
  }

  // An atom that opens with '(' is either a path group or a boolean group,
  // and only the path parse can tell: it is tried first and, when it fails,
  // the atom is re-read as a boolean group. Nested atoms would repeat that
  // retry at every level, doubling the work per level, so the outcome of
  // every atom read at a '(' is memoized by token position.
  StatusOr<ParsedFilter> ParseAtomF() {
    if (Peek() != Tok::kLParen) return ParseAtomUncached();
    const size_t start = ti_;
    auto it = group_atoms_.find(start);
    if (it == group_atoms_.end()) {
      StatusOr<ParsedFilter> atom = ParseAtomUncached();
      it = group_atoms_.emplace(start, GroupAtom{std::move(atom), ti_}).first;
    }
    ti_ = it->second.end;
    return it->second.atom;
  }

  StatusOr<ParsedFilter> ParseAtomUncached() {
    if (Consume(Tok::kTextFn)) {
      if (!Consume(Tok::kEq)) return Err("expected '=' after text()");
      if (Peek() != Tok::kString) return Err("expected a string literal");
      std::string value = Cur().text;
      Advance();
      return ParsedFilter{FTextEquals(Eps(), std::move(value)), 2};
    }
    if (Consume(Tok::kPosFn)) {
      if (!Consume(Tok::kEq)) return Err("expected '=' after position()");
      if (Peek() != Tok::kNumber) return Err("expected a number");
      int k = std::atoi(Cur().text.c_str());
      Advance();
      return ParsedFilter{FPositionEquals(k), 1};
    }
    // Try a path atom first; '(' may open either a path group or a boolean
    // group, and only paths can continue with '/', '*', '[' or '|'.
    size_t saved = ti_;
    StatusOr<ParsedPath> path = ParseUnion();
    if (path.ok()) {
      ParsedPath p = path.take();
      if (Peek() == Tok::kSlash && Peek(1) == Tok::kTextFn) {
        Advance();
        Advance();
        if (!Consume(Tok::kEq)) return Err("expected '=' after text()");
        if (Peek() != Tok::kString) return Err("expected a string literal");
        std::string value = Cur().text;
        Advance();
        return Above(FTextEquals(p.node, std::move(value)), p.height);
      }
      return Above(FPath(p.node), p.height);
    }
    ti_ = saved;
    if (Consume(Tok::kLParen)) {
      SMOQE_ASSIGN_OR_RETURN(ParsedFilter f, ParseOrF());
      if (!Consume(Tok::kRParen)) return Err("expected ')'");
      return f;
    }
    return path.status();
  }

  struct GroupAtom {
    StatusOr<ParsedFilter> atom;
    size_t end;  // token position after the atom
  };

  std::vector<Token> toks_;
  size_t ti_ = 0;
  std::unordered_map<size_t, GroupAtom> group_atoms_;  // keyed by start
};

}  // namespace

StatusOr<PathPtr> ParseQuery(std::string_view input) {
  SMOQE_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(input));
  return QueryParser(std::move(toks)).ParseWholeQuery();
}

StatusOr<FilterPtr> ParseFilterExpr(std::string_view input) {
  SMOQE_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(input));
  return QueryParser(std::move(toks)).ParseWholeFilter();
}

}  // namespace smoqe::xpath
