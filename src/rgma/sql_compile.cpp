#include "rgma/sql_compile.hpp"

#include <type_traits>
#include <variant>

#include "util/like.hpp"

namespace gridmon::rgma::sql {
namespace {

using util::sql::Between;
using util::sql::Binary;
using util::sql::BinaryOp;
using util::sql::Constant;
using util::sql::Identifier;
using util::sql::InList;
using util::sql::IsNull;
using util::sql::Like;
using util::sql::Literal;
using util::sql::Unary;
using util::sql::UnaryOp;

/// Row index of a column the table does not define: no row reaches it.
constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

/// Predicates produce int64 0/1; anything else (NULL) is UNKNOWN.
Tri tri_of(const SqlValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return *i != 0 ? Tri::kTrue : Tri::kFalse;
  }
  return Tri::kUnknown;
}

SqlValue value_of(Tri t) {
  if (t == Tri::kUnknown) return SqlNull{};
  return std::int64_t{t == Tri::kTrue ? 1 : 0};
}

SqlValue truth(bool holds) { return std::int64_t{holds ? 1 : 0}; }

template <typename T>
Tri order(BinaryOp op, const T& a, const T& b) {
  bool holds = false;
  switch (op) {
    case BinaryOp::kEq:
      holds = a == b;
      break;
    case BinaryOp::kNeq:
      holds = a != b;
      break;
    case BinaryOp::kLt:
      holds = a < b;
      break;
    case BinaryOp::kLe:
      holds = a <= b;
      break;
    case BinaryOp::kGt:
      holds = a > b;
      break;
    case BinaryOp::kGe:
      holds = a >= b;
      break;
    default:
      return Tri::kUnknown;
  }
  return holds ? Tri::kTrue : Tri::kFalse;
}

/// Numbers compare as doubles and strings lexicographically (unlike JMS
/// selectors); a number against a string, or a NULL, is UNKNOWN.
Tri compare(BinaryOp op, const SqlValue& lhs, const SqlValue& rhs) {
  if (is_numeric(lhs) && is_numeric(rhs)) {
    return order(op, sql_as_double(lhs), sql_as_double(rhs));
  }
  if (is_string(lhs) && is_string(rhs)) {
    return order(op, std::get<std::string>(lhs), std::get<std::string>(rhs));
  }
  return Tri::kUnknown;
}

template <typename T>
SqlValue apply(BinaryOp op, T a, T b) {
  switch (op) {
    case BinaryOp::kAdd:
      return a + b;
    case BinaryOp::kSub:
      return a - b;
    case BinaryOp::kMul:
      return a * b;
    case BinaryOp::kDiv:
      if (b == T{0}) return SqlNull{};
      return a / b;
    default:
      return SqlNull{};
  }
}

/// Two integers stay integral; a double on either side makes a double. A
/// non-numeric operand or a zero divisor is NULL.
SqlValue arithmetic(BinaryOp op, const SqlValue& lhs, const SqlValue& rhs) {
  if (!is_numeric(lhs) || !is_numeric(rhs)) return SqlNull{};
  const auto* a = std::get_if<std::int64_t>(&lhs);
  const auto* b = std::get_if<std::int64_t>(&rhs);
  if (a != nullptr && b != nullptr) return apply(op, *a, *b);
  return apply(op, sql_as_double(lhs), sql_as_double(rhs));
}

}  // namespace

CompiledPredicate CompiledPredicate::compile(const ExprPtr& expr,
                                             const TableDef& table) {
  CompiledPredicate bound;
  if (!expr) return bound;
  bound.expr_ = expr;
  util::sql::for_each_node(*expr, [&](const Expr& node) {
    if (const auto* column = std::get_if<Identifier>(&node.node)) {
      bound.columns_.emplace_back(
          column, table.column_index(column->name).value_or(kNoColumn));
    }
  });
  return bound;
}

Tri CompiledPredicate::evaluate(const std::vector<SqlValue>& row) const {
  if (!expr_) return Tri::kUnknown;
  return tri_of(eval(*expr_, row));
}

SqlValue CompiledPredicate::eval(const Expr& expr,
                                 const std::vector<SqlValue>& row) const {
  return std::visit(
      [&](const auto& node) -> SqlValue {
        using Node = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<Node, Constant>) {
          return sql_value(node.value);
        } else if constexpr (std::is_same_v<Node, Identifier>) {
          for (const auto& [ref, index] : columns_) {
            if (ref == &node && index < row.size()) return row[index];
          }
          return SqlNull{};
        } else if constexpr (std::is_same_v<Node, Unary>) {
          const SqlValue operand = eval(*node.operand, row);
          if (node.op == UnaryOp::kNot) {
            return value_of(tri_not(tri_of(operand)));
          }
          if (node.op == UnaryOp::kPos) return operand;
          if (const auto* i = std::get_if<std::int64_t>(&operand)) return -*i;
          if (const auto* d = std::get_if<double>(&operand)) return -*d;
          return SqlNull{};
        } else if constexpr (std::is_same_v<Node, Binary>) {
          if (node.op == BinaryOp::kAnd || node.op == BinaryOp::kOr) {
            // A deciding lhs (FALSE for AND, TRUE for OR) skips the rhs.
            const bool is_and = node.op == BinaryOp::kAnd;
            const Tri lhs = tri_of(eval(*node.lhs, row));
            if (lhs == (is_and ? Tri::kFalse : Tri::kTrue)) {
              return value_of(lhs);
            }
            const Tri rhs = tri_of(eval(*node.rhs, row));
            return value_of(is_and ? tri_and(lhs, rhs) : tri_or(lhs, rhs));
          }
          const SqlValue lhs = eval(*node.lhs, row);
          const SqlValue rhs = eval(*node.rhs, row);
          if (is_null(lhs) || is_null(rhs)) return SqlNull{};
          switch (node.op) {
            case BinaryOp::kAdd:
            case BinaryOp::kSub:
            case BinaryOp::kMul:
            case BinaryOp::kDiv:
              return arithmetic(node.op, lhs, rhs);
            default:
              return value_of(compare(node.op, lhs, rhs));
          }
        } else if constexpr (std::is_same_v<Node, Between>) {
          const SqlValue value = eval(*node.value, row);
          const SqlValue low = eval(*node.low, row);
          const SqlValue high = eval(*node.high, row);
          if (is_null(value) || is_null(low) || is_null(high)) {
            return SqlNull{};
          }
          const Tri inside = tri_and(compare(BinaryOp::kGe, value, low),
                                     compare(BinaryOp::kLe, value, high));
          return value_of(node.negated ? tri_not(inside) : inside);
        } else if constexpr (std::is_same_v<Node, InList>) {
          const SqlValue value = eval(*node.value, row);
          if (is_null(value)) return SqlNull{};
          bool found = false;
          for (const Literal& option : node.options) {
            if (compare(BinaryOp::kEq, value, sql_value(option)) ==
                Tri::kTrue) {
              found = true;
              break;
            }
          }
          return truth(node.negated ? !found : found);
        } else if constexpr (std::is_same_v<Node, Like>) {
          const SqlValue value = eval(*node.value, row);
          const auto* text = std::get_if<std::string>(&value);
          if (text == nullptr) return SqlNull{};  // NULL or not a string
          const bool matched =
              util::like_match(*text, node.pattern, node.escape);
          return truth(node.negated ? !matched : matched);
        } else {
          static_assert(std::is_same_v<Node, IsNull>);
          const bool null = is_null(eval(*node.value, row));
          return truth(node.negated ? !null : null);
        }
      },
      expr.node);
}

}  // namespace gridmon::rgma::sql
