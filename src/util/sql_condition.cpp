#include "util/sql_condition.hpp"

#include <cctype>
#include <charconv>
#include <type_traits>

namespace gridmon::util::sql {
namespace {

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}
bool name_part(char c) { return name_start(c) || is_digit(c) || c == '.'; }

/// `word` (upper case) equals `text` in any case.
bool same_word(std::string_view word, std::string_view text) {
  if (word.size() != text.size()) return false;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) != word[i]) {
      return false;
    }
  }
  return true;
}

TokenKind keyword_or_name(std::string_view text) {
  static constexpr struct {
    std::string_view word;
    TokenKind kind;
  } kKeywords[] = {
      {"AND", TokenKind::kAnd},   {"OR", TokenKind::kOr},
      {"NOT", TokenKind::kNot},   {"BETWEEN", TokenKind::kBetween},
      {"IN", TokenKind::kIn},     {"LIKE", TokenKind::kLike},
      {"IS", TokenKind::kIs},     {"NULL", TokenKind::kNull},
      {"TRUE", TokenKind::kTrue}, {"FALSE", TokenKind::kFalse},
  };
  for (const auto& keyword : kKeywords) {
    if (same_word(keyword.word, text)) return keyword.kind;
  }
  return TokenKind::kName;
}

}  // namespace

void for_each_node(const Expr& expr,
                   const std::function<void(const Expr&)>& fn) {
  fn(expr);
  std::visit(
      [&](const auto& node) {
        using Node = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<Node, Unary>) {
          for_each_node(*node.operand, fn);
        } else if constexpr (std::is_same_v<Node, Binary>) {
          for_each_node(*node.lhs, fn);
          for_each_node(*node.rhs, fn);
        } else if constexpr (std::is_same_v<Node, Between>) {
          for_each_node(*node.value, fn);
          for_each_node(*node.low, fn);
          for_each_node(*node.high, fn);
        } else if constexpr (!std::is_same_v<Node, Constant> &&
                             !std::is_same_v<Node, Identifier>) {
          for_each_node(*node.value, fn);  // InList, Like, IsNull
        }
      },
      expr.node);
}

Parser::Parser(std::string_view source) : source_(source) { advance(); }

void Parser::advance() {
  const std::size_t n = source_.size();
  std::size_t i = offset_;
  while (i < n && std::isspace(static_cast<unsigned char>(source_[i]))) ++i;
  std::size_t end = i;
  token_.position = i;
  token_.value = Null{};
  auto digits = [&] {
    while (end < n && is_digit(source_[end])) ++end;
  };
  const char c = i < n ? source_[i] : '\0';
  const char next = i + 1 < n ? source_[i + 1] : '\0';
  if (i == n) {
    token_.kind = TokenKind::kEnd;
  } else if (name_start(c)) {
    while (end < n && name_part(source_[end])) ++end;
    token_.kind = keyword_or_name(source_.substr(i, end - i));
  } else if (is_digit(c) || (c == '.' && is_digit(next))) {
    digits();
    bool is_double = false;
    if (end < n && source_[end] == '.') {
      is_double = true;
      ++end;
      digits();
    }
    if (end < n && (source_[end] == 'e' || source_[end] == 'E')) {
      std::size_t k = end + 1;
      if (k < n && (source_[k] == '+' || source_[k] == '-')) ++k;
      if (k < n && is_digit(source_[k])) {
        is_double = true;
        end = k;
        digits();
      }
    }
    const char* first = source_.data() + i;
    const char* last = source_.data() + end;
    std::errc error{};
    if (is_double) {
      double d = 0;
      error = std::from_chars(first, last, d).ec;
      token_.kind = TokenKind::kDouble;
      token_.value = d;
    } else {
      std::int64_t v = 0;
      error = std::from_chars(first, last, v).ec;
      token_.kind = TokenKind::kInt;
      token_.value = v;
    }
    if (error != std::errc{}) {
      throw ParseError(is_double ? "floating-point literal out of range"
                                 : "integer literal out of range",
                       i);
    }
  } else if (c == '\'') {
    // SQL string literal; '' is an escaped quote.
    std::string text;
    for (++end;; ++end) {
      if (end >= n) throw ParseError("unterminated string literal", i);
      if (source_[end] == '\'') {
        if (end + 1 == n || source_[end + 1] != '\'') break;
        ++end;
      }
      text += source_[end];
    }
    ++end;
    token_.kind = TokenKind::kString;
    token_.value = std::move(text);
  } else if (c == '<' || c == '>') {
    const bool two = next == '=' || (c == '<' && next == '>');
    end = i + (two ? 2 : 1);
    token_.kind = c == '>'       ? (two ? TokenKind::kGe : TokenKind::kGt)
                  : next == '>' ? TokenKind::kNeq
                  : two         ? TokenKind::kLe
                                : TokenKind::kLt;
  } else {
    static constexpr std::string_view kSingles = "=+-*/(),";
    static constexpr TokenKind kSingleKinds[] = {
        TokenKind::kEq,    TokenKind::kPlus,   TokenKind::kMinus,
        TokenKind::kStar,  TokenKind::kSlash,  TokenKind::kLParen,
        TokenKind::kRParen, TokenKind::kComma};
    const std::size_t single = kSingles.find(c);
    if (single == std::string_view::npos) {
      throw ParseError(std::string("unexpected character '") + c + "'", i);
    }
    end = i + 1;
    token_.kind = kSingleKinds[single];
  }
  token_.text = source_.substr(i, end - i);
  offset_ = end;
}

bool Parser::accept(TokenKind kind) {
  if (token_.kind != kind) return false;
  advance();
  return true;
}

void Parser::expect(TokenKind kind, const char* what) {
  if (!accept(kind)) fail(std::string("expected ") + what);
}

bool Parser::at_word(std::string_view word) const {
  return token_.kind == TokenKind::kName && same_word(word, token_.text);
}

bool Parser::accept_word(std::string_view word) {
  if (!at_word(word)) return false;
  advance();
  return true;
}

void Parser::fail(const std::string& what) const {
  throw ParseError(what, token_.position);
}

ExprPtr Parser::condition() {
  ExprPtr lhs = and_cond();
  while (accept(TokenKind::kOr)) {
    lhs = make_expr(Binary{BinaryOp::kOr, lhs, and_cond()});
  }
  return lhs;
}

ExprPtr Parser::and_cond() {
  ExprPtr lhs = not_cond();
  while (accept(TokenKind::kAnd)) {
    lhs = make_expr(Binary{BinaryOp::kAnd, lhs, not_cond()});
  }
  return lhs;
}

ExprPtr Parser::not_cond() {
  if (accept(TokenKind::kNot)) {
    return make_expr(Unary{UnaryOp::kNot, not_cond()});
  }
  return predicate();
}

ExprPtr Parser::predicate() {
  ExprPtr lhs = arith();
  static constexpr struct {
    TokenKind token;
    BinaryOp op;
  } kComparisons[] = {
      {TokenKind::kEq, BinaryOp::kEq}, {TokenKind::kNeq, BinaryOp::kNeq},
      {TokenKind::kLt, BinaryOp::kLt}, {TokenKind::kLe, BinaryOp::kLe},
      {TokenKind::kGt, BinaryOp::kGt}, {TokenKind::kGe, BinaryOp::kGe},
  };
  for (const auto& cmp : kComparisons) {
    if (accept(cmp.token)) return make_expr(Binary{cmp.op, lhs, arith()});
  }
  if (accept(TokenKind::kIs)) {
    const bool negated = accept(TokenKind::kNot);
    expect(TokenKind::kNull, "NULL after IS");
    return make_expr(IsNull{negated, lhs});
  }
  // Nothing valid follows a NOT here but BETWEEN, IN or LIKE.
  const bool negated = accept(TokenKind::kNot);
  if (accept(TokenKind::kBetween)) {
    ExprPtr low = arith();
    expect(TokenKind::kAnd, "AND in BETWEEN");
    return make_expr(Between{negated, lhs, low, arith()});
  }
  if (accept(TokenKind::kIn)) {
    InList in{negated, lhs, {}, token_.position};
    expect(TokenKind::kLParen, "'(' after IN");
    do {
      in.options.push_back(literal());
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, "')' after IN list");
    return make_expr(std::move(in));
  }
  if (accept(TokenKind::kLike)) {
    if (token_.kind != TokenKind::kString) {
      fail("LIKE pattern must be a string literal");
    }
    Like like{negated, lhs, std::get<std::string>(std::move(token_.value))};
    advance();
    if (accept_word("ESCAPE")) {
      const auto* escape = std::get_if<std::string>(&token_.value);
      if (escape == nullptr || escape->size() != 1) {
        fail("ESCAPE must be a single-character string literal");
      }
      like.escape = escape->front();
      advance();
    }
    return make_expr(std::move(like));
  }
  if (negated) fail("expected BETWEEN, IN or LIKE after NOT");
  return lhs;
}

ExprPtr Parser::arith() {
  ExprPtr lhs = term();
  for (;;) {
    if (accept(TokenKind::kPlus)) {
      lhs = make_expr(Binary{BinaryOp::kAdd, lhs, term()});
    } else if (accept(TokenKind::kMinus)) {
      lhs = make_expr(Binary{BinaryOp::kSub, lhs, term()});
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::term() {
  ExprPtr lhs = factor();
  for (;;) {
    if (accept(TokenKind::kStar)) {
      lhs = make_expr(Binary{BinaryOp::kMul, lhs, factor()});
    } else if (accept(TokenKind::kSlash)) {
      lhs = make_expr(Binary{BinaryOp::kDiv, lhs, factor()});
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::factor() {
  if (accept(TokenKind::kMinus)) {
    return make_expr(Unary{UnaryOp::kNeg, factor()});
  }
  if (accept(TokenKind::kPlus)) {
    return make_expr(Unary{UnaryOp::kPos, factor()});
  }
  return primary();
}

ExprPtr Parser::primary() {
  Literal value;
  switch (token_.kind) {
    case TokenKind::kInt:
    case TokenKind::kDouble:
    case TokenKind::kString:
      value = std::move(token_.value);
      break;
    case TokenKind::kTrue:
    case TokenKind::kFalse:
      value = token_.kind == TokenKind::kTrue;
      break;
    case TokenKind::kNull:
      break;
    case TokenKind::kName: {
      std::string name(token_.text);
      advance();
      return make_expr(Identifier{std::move(name)});
    }
    case TokenKind::kLParen: {
      advance();
      ExprPtr inner = condition();
      expect(TokenKind::kRParen, "')'");
      return inner;
    }
    default:
      fail("expected literal, name or '('");
  }
  advance();
  return make_expr(Constant{std::move(value)});
}

Literal Parser::literal() {
  const bool negate = accept(TokenKind::kMinus);
  Literal value = std::move(token_.value);
  if (token_.kind == TokenKind::kInt) {
    if (negate) value = -std::get<std::int64_t>(value);
  } else if (token_.kind == TokenKind::kDouble) {
    if (negate) value = -std::get<double>(value);
  } else if (token_.kind != TokenKind::kString &&
             token_.kind != TokenKind::kNull) {
    fail("expected literal");
  } else if (negate) {
    fail("only a number can be negated");
  }
  advance();
  return value;
}

ExprPtr parse_condition(std::string_view source) {
  Parser parser(source);
  ExprPtr condition = parser.condition();
  parser.expect(TokenKind::kEnd, "end of condition");
  return condition;
}

}  // namespace gridmon::util::sql
