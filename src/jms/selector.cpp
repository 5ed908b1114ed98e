// Selector parsing through the shared SQL-92 condition front end, and
// evaluation with SQL three-valued logic.
//
// Sub-expressions evaluate to a jms::Value; NullValue doubles as SQL
// UNKNOWN. Type mismatches (comparing a string with a number, arithmetic on
// a boolean, LIKE on a non-string) yield UNKNOWN rather than an error, as
// the JMS spec requires for selectors.
#include "jms/selector.hpp"

#include <cctype>
#include <type_traits>

#include "util/like.hpp"

namespace gridmon::jms {
namespace {

namespace ast = util::sql;
using ast::BinaryOp;
using ast::Expr;
using ast::UnaryOp;

bool is_blank(std::string_view text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

Tri value_to_tri(const Value& v) {
  if (const auto* b = std::get_if<bool>(&v)) {
    return *b ? Tri::kTrue : Tri::kFalse;
  }
  return Tri::kUnknown;
}

Value tri_to_value(Tri t) {
  switch (t) {
    case Tri::kTrue:
      return true;
    case Tri::kFalse:
      return false;
    case Tri::kUnknown:
      return NullValue{};
  }
  return NullValue{};
}

class Evaluator {
 public:
  explicit Evaluator(const Message& message) : message_(message) {}

  Value eval(const Expr& expr) const {
    return std::visit([this](const auto& node) { return eval_node(node); },
                      expr.node);
  }

 private:
  Value eval_node(const ast::Constant& constant) const {
    return std::visit(
        [](const auto& v) -> Value {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, ast::Null>) {
            return NullValue{};
          } else {
            return v;
          }
        },
        constant.value);
  }

  Value eval_node(const ast::Identifier& ident) const {
    return message_.property(ident.name);
  }

  Value eval_node(const ast::Unary& unary) const {
    const Value operand = eval(*unary.operand);
    switch (unary.op) {
      case UnaryOp::kNot:
        return tri_to_value(tri_not(value_to_tri(operand)));
      case UnaryOp::kNeg:
        if (is_integral(operand)) return -as_int64(operand);
        if (is_numeric(operand)) return -as_double(operand);
        return NullValue{};
      case UnaryOp::kPos:
        if (is_numeric(operand)) return operand;
        return NullValue{};
    }
    return NullValue{};
  }

  Value eval_node(const ast::Binary& binary) const {
    // Logic short-circuits per three-valued truth tables.
    if (binary.op == BinaryOp::kAnd) {
      const Tri lhs = value_to_tri(eval(*binary.lhs));
      if (lhs == Tri::kFalse) return false;
      return tri_to_value(tri_and(lhs, value_to_tri(eval(*binary.rhs))));
    }
    if (binary.op == BinaryOp::kOr) {
      const Tri lhs = value_to_tri(eval(*binary.lhs));
      if (lhs == Tri::kTrue) return true;
      return tri_to_value(tri_or(lhs, value_to_tri(eval(*binary.rhs))));
    }

    const Value lhs = eval(*binary.lhs);
    const Value rhs = eval(*binary.rhs);
    if (is_null(lhs) || is_null(rhs)) return NullValue{};

    switch (binary.op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        return arithmetic(binary.op, lhs, rhs);
      case BinaryOp::kEq:
      case BinaryOp::kNeq:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        return tri_to_value(compare(binary.op, lhs, rhs));
      default:
        return NullValue{};
    }
  }

  Value eval_node(const ast::Between& between) const {
    const Value value = eval(*between.value);
    const Value low = eval(*between.low);
    const Value high = eval(*between.high);
    if (is_null(value) || is_null(low) || is_null(high)) return NullValue{};
    const Tri result = tri_and(compare(BinaryOp::kGe, value, low),
                               compare(BinaryOp::kLe, value, high));
    return tri_to_value(between.negated ? tri_not(result) : result);
  }

  Value eval_node(const ast::InList& in) const {
    const Value value = eval(*in.value);
    if (is_null(value)) return NullValue{};
    const auto* str = std::get_if<std::string>(&value);
    if (str == nullptr) return NullValue{};
    bool found = false;
    for (const auto& option : in.options) {
      if (std::get<std::string>(option) == *str) {  // parse() checked
        found = true;
        break;
      }
    }
    return in.negated ? !found : found;
  }

  Value eval_node(const ast::Like& like) const {
    const Value value = eval(*like.value);
    if (is_null(value)) return NullValue{};
    const auto* str = std::get_if<std::string>(&value);
    if (str == nullptr) return NullValue{};
    const bool matched = util::like_match(*str, like.pattern, like.escape);
    return like.negated ? !matched : matched;
  }

  Value eval_node(const ast::IsNull& isnull) const {
    const bool null = is_null(eval(*isnull.value));
    return isnull.negated ? !null : null;
  }

  static Value arithmetic(BinaryOp op, const Value& lhs, const Value& rhs) {
    if (!is_numeric(lhs) || !is_numeric(rhs)) return NullValue{};
    if (is_integral(lhs) && is_integral(rhs)) {
      const std::int64_t a = as_int64(lhs);
      const std::int64_t b = as_int64(rhs);
      switch (op) {
        case BinaryOp::kAdd:
          return a + b;
        case BinaryOp::kSub:
          return a - b;
        case BinaryOp::kMul:
          return a * b;
        case BinaryOp::kDiv:
          if (b == 0) return NullValue{};  // SQL: error → UNKNOWN
          return a / b;
        default:
          return NullValue{};
      }
    }
    const double a = as_double(lhs);
    const double b = as_double(rhs);
    switch (op) {
      case BinaryOp::kAdd:
        return a + b;
      case BinaryOp::kSub:
        return a - b;
      case BinaryOp::kMul:
        return a * b;
      case BinaryOp::kDiv:
        return a / b;  // IEEE semantics, like Java
      default:
        return NullValue{};
    }
  }

  static Tri compare(BinaryOp op, const Value& lhs, const Value& rhs) {
    if (is_numeric(lhs) && is_numeric(rhs)) {
      const double a = as_double(lhs);
      const double b = as_double(rhs);
      switch (op) {
        case BinaryOp::kEq:
          return a == b ? Tri::kTrue : Tri::kFalse;
        case BinaryOp::kNeq:
          return a != b ? Tri::kTrue : Tri::kFalse;
        case BinaryOp::kLt:
          return a < b ? Tri::kTrue : Tri::kFalse;
        case BinaryOp::kLe:
          return a <= b ? Tri::kTrue : Tri::kFalse;
        case BinaryOp::kGt:
          return a > b ? Tri::kTrue : Tri::kFalse;
        case BinaryOp::kGe:
          return a >= b ? Tri::kTrue : Tri::kFalse;
        default:
          return Tri::kUnknown;
      }
    }
    if (is_string(lhs) && is_string(rhs)) {
      if (op == BinaryOp::kEq) {
        return std::get<std::string>(lhs) == std::get<std::string>(rhs)
                   ? Tri::kTrue
                   : Tri::kFalse;
      }
      if (op == BinaryOp::kNeq) {
        return std::get<std::string>(lhs) != std::get<std::string>(rhs)
                   ? Tri::kTrue
                   : Tri::kFalse;
      }
      return Tri::kUnknown;  // ordering comparisons on strings are invalid
    }
    if (is_bool(lhs) && is_bool(rhs)) {
      if (op == BinaryOp::kEq) {
        return std::get<bool>(lhs) == std::get<bool>(rhs) ? Tri::kTrue
                                                          : Tri::kFalse;
      }
      if (op == BinaryOp::kNeq) {
        return std::get<bool>(lhs) != std::get<bool>(rhs) ? Tri::kTrue
                                                          : Tri::kFalse;
      }
      return Tri::kUnknown;
    }
    return Tri::kUnknown;  // cross-type comparison is invalid
  }

  const Message& message_;
};

}  // namespace

Selector Selector::parse(std::string_view text) {
  Selector selector;
  selector.text_ = std::string(text);
  if (is_blank(text)) return selector;  // match-everything
  selector.root_ = util::sql::parse_condition(text);
  // The shared grammar also reads R-GMA's numeric and NULL IN elements;
  // a JMS IN list holds string literals only.
  util::sql::for_each_node(*selector.root_, [](const Expr& expr) {
    const auto* in = std::get_if<ast::InList>(&expr.node);
    if (in == nullptr) return;
    for (const auto& option : in->options) {
      if (!std::holds_alternative<std::string>(option)) {
        throw SelectorParseError("IN list elements must be string literals",
                                 in->position);
      }
    }
  });
  return selector;
}

Tri Selector::evaluate(const Message& message) const {
  if (root_ == nullptr) return Tri::kTrue;
  return value_to_tri(Evaluator(message).eval(*root_));
}

}  // namespace gridmon::jms
