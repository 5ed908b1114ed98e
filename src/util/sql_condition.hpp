// The SQL-92 condition language the study's two filters share: JMS message
// selectors (JMS 1.1 §3.8) and the WHERE clauses of R-GMA's SQL. One
// tokenizer, one recursive-descent grammar, one AST and one parse error;
// each middleware keeps its own evaluator, because their type rules differ
// (JMS has booleans and compares strings only with = and <>; R-GMA encodes
// truth as integer 0/1 and orders strings).
//
//   condition  := and_cond ( OR and_cond )*
//   and_cond   := not_cond ( AND not_cond )*
//   not_cond   := NOT not_cond | predicate
//   predicate  := arith [ cmp_op arith
//                       | [NOT] BETWEEN arith AND arith
//                       | [NOT] IN '(' literal (',' literal)* ')'
//                       | [NOT] LIKE string [ESCAPE string]
//                       | IS [NOT] NULL ]
//   arith      := term ( (+|-) term )*
//   term       := factor ( (*|/) factor )*
//   factor     := (+|-) factor | primary
//   primary    := number | string | TRUE | FALSE | NULL | name
//               | '(' condition ')'
//   literal    := [-] number | string | NULL
//
// Keywords are case-insensitive, names case-sensitive. A name starts with a
// letter, '_' or '$' and goes on with those, digits and '.'; ESCAPE is a
// keyword only after a LIKE pattern. A number is digits with an optional
// fraction and exponent (".5" included). An integer beyond int64, or a
// number whose double would be infinite or round a non-zero value to zero,
// is a parse error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace gridmon::util::sql {

struct Null {
  friend bool operator==(const Null&, const Null&) = default;
};

/// A literal as written: TRUE/FALSE are bool, a number without fraction or
/// exponent is int64.
using Literal = std::variant<Null, bool, std::int64_t, double, std::string>;

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNeg, kPos, kNot };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Constant {
  Literal value;
};
struct Identifier {
  std::string name;
};
struct Unary {
  UnaryOp op;
  ExprPtr operand;
};
struct Binary {
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};
struct Between {
  bool negated;
  ExprPtr value;
  ExprPtr low;
  ExprPtr high;
};
struct InList {
  bool negated;
  ExprPtr value;
  std::vector<Literal> options;
  std::size_t position = 0;  ///< source offset of the list's '('
};
struct Like {
  bool negated;
  ExprPtr value;
  std::string pattern;
  char escape = '\0';  ///< 0 = no escape character
};
struct IsNull {
  bool negated;
  ExprPtr value;
};

struct Expr {
  std::variant<Constant, Identifier, Unary, Binary, Between, InList, Like,
               IsNull>
      node;
};

template <typename Node>
ExprPtr make_expr(Node node) {
  return std::make_shared<const Expr>(Expr{std::move(node)});
}

/// Calls `fn` on `expr` and then on each expression under it.
void for_each_node(const Expr& expr,
                   const std::function<void(const Expr&)>& fn);

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t position)
      : std::runtime_error(what + " (at offset " + std::to_string(position) +
                           ")"),
        position_(position) {}
  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

enum class TokenKind {
  kName,
  kInt,
  kDouble,
  kString,
  kAnd,
  kOr,
  kNot,
  kBetween,
  kIn,
  kLike,
  kIs,
  kNull,
  kTrue,
  kFalse,
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kLParen,
  kRParen,
  kComma,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::size_t position = 0;  ///< offset in the source
  std::string_view text;     ///< the token as written
  Literal value;             ///< a number's or string's value
};

/// Reads `source`, which must outlive the parser, one token ahead. A
/// statement parser drives the token methods itself and calls condition()
/// or literal() where its grammar holds one.
class Parser {
 public:
  explicit Parser(std::string_view source);

  [[nodiscard]] ExprPtr condition();
  [[nodiscard]] Literal literal();

  [[nodiscard]] const Token& peek() const { return token_; }
  void advance();
  bool accept(TokenKind kind);
  void expect(TokenKind kind, const char* what);
  /// Is the current token a name spelling `word` (upper case) in any case?
  [[nodiscard]] bool at_word(std::string_view word) const;
  bool accept_word(std::string_view word);
  /// Throws ParseError at the current token.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  ExprPtr and_cond();
  ExprPtr not_cond();
  ExprPtr predicate();
  ExprPtr arith();
  ExprPtr term();
  ExprPtr factor();
  ExprPtr primary();

  std::string_view source_;
  std::size_t offset_ = 0;  ///< where the token after token_ starts
  Token token_;
};

/// A whole source text holding one condition.
[[nodiscard]] ExprPtr parse_condition(std::string_view source);

}  // namespace gridmon::util::sql
