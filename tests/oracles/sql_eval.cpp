#include "oracles/sql_eval.hpp"

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

/// A literal's value; TRUE and FALSE are 1 and 0, as predicates encode
/// truth.
SqlValue value_of(const Literal& literal) {
  if (const auto* b = std::get_if<bool>(&literal)) {
    return std::int64_t{*b ? 1 : 0};
  }
  if (const auto* i = std::get_if<std::int64_t>(&literal)) return *i;
  if (const auto* d = std::get_if<double>(&literal)) return *d;
  if (const auto* s = std::get_if<std::string>(&literal)) return *s;
  return SqlNull{};
}

Tri value_to_tri(const SqlValue& v) {
  // Predicates produce int64 0/1; NULL is UNKNOWN.
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return *i != 0 ? Tri::kTrue : Tri::kFalse;
  }
  return Tri::kUnknown;
}

SqlValue tri_to_value(Tri t) {
  switch (t) {
    case Tri::kTrue:
      return std::int64_t{1};
    case Tri::kFalse:
      return std::int64_t{0};
    case Tri::kUnknown:
      return SqlNull{};
  }
  return SqlNull{};
}

class Evaluator {
 public:
  Evaluator(const TableDef& table, const std::vector<SqlValue>& row)
      : table_(table), row_(row) {}

  SqlValue eval(const Expr& expr) const {
    return std::visit([this](const auto& node) { return eval_node(node); },
                      expr.node);
  }

 private:
  SqlValue eval_node(const Constant& constant) const {
    return value_of(constant.value);
  }

  SqlValue eval_node(const Identifier& ref) const {
    const auto index = table_.column_index(ref.name);
    if (!index || *index >= row_.size()) return SqlNull{};
    return row_[*index];
  }

  SqlValue eval_node(const Unary& unary) const {
    const SqlValue operand = eval(*unary.operand);
    if (unary.op == UnaryOp::kNot) {
      return tri_to_value(tri_not(value_to_tri(operand)));
    }
    if (unary.op == UnaryOp::kPos) return operand;
    if (is_null(operand)) return SqlNull{};
    if (const auto* i = std::get_if<std::int64_t>(&operand)) return -*i;
    if (const auto* d = std::get_if<double>(&operand)) return -*d;
    return SqlNull{};
  }

  SqlValue eval_node(const Binary& binary) const {
    if (binary.op == BinaryOp::kAnd) {
      const Tri lhs = value_to_tri(eval(*binary.lhs));
      if (lhs == Tri::kFalse) return tri_to_value(Tri::kFalse);
      return tri_to_value(tri_and(lhs, value_to_tri(eval(*binary.rhs))));
    }
    if (binary.op == BinaryOp::kOr) {
      const Tri lhs = value_to_tri(eval(*binary.lhs));
      if (lhs == Tri::kTrue) return tri_to_value(Tri::kTrue);
      return tri_to_value(tri_or(lhs, value_to_tri(eval(*binary.rhs))));
    }
    const SqlValue lhs = eval(*binary.lhs);
    const SqlValue rhs = eval(*binary.rhs);
    if (is_null(lhs) || is_null(rhs)) return SqlNull{};

    switch (binary.op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        return arithmetic(binary.op, lhs, rhs);
      default:
        return tri_to_value(compare(binary.op, lhs, rhs));
    }
  }

  SqlValue eval_node(const Between& between) const {
    const SqlValue value = eval(*between.value);
    const SqlValue low = eval(*between.low);
    const SqlValue high = eval(*between.high);
    if (is_null(value) || is_null(low) || is_null(high)) return SqlNull{};
    const Tri result = tri_and(compare(BinaryOp::kGe, value, low),
                               compare(BinaryOp::kLe, value, high));
    return tri_to_value(between.negated ? tri_not(result) : result);
  }

  SqlValue eval_node(const InList& in) const {
    const SqlValue value = eval(*in.value);
    if (is_null(value)) return SqlNull{};
    bool found = false;
    for (const auto& option : in.options) {
      if (compare(BinaryOp::kEq, value, value_of(option)) == Tri::kTrue) {
        found = true;
        break;
      }
    }
    return tri_to_value((in.negated ? !found : found) ? Tri::kTrue
                                                      : Tri::kFalse);
  }

  SqlValue eval_node(const Like& like) const {
    const SqlValue value = eval(*like.value);
    if (is_null(value)) return SqlNull{};
    const auto* str = std::get_if<std::string>(&value);
    if (str == nullptr) return SqlNull{};
    const bool matched = util::like_match(*str, like.pattern, like.escape);
    return tri_to_value((like.negated ? !matched : matched) ? Tri::kTrue
                                                            : Tri::kFalse);
  }

  SqlValue eval_node(const IsNull& isnull) const {
    const bool null = is_null(eval(*isnull.value));
    return tri_to_value((isnull.negated ? !null : null) ? Tri::kTrue
                                                        : Tri::kFalse);
  }

  static SqlValue arithmetic(BinaryOp op, const SqlValue& lhs,
                             const SqlValue& rhs) {
    if (!is_numeric(lhs) || !is_numeric(rhs)) return SqlNull{};
    const bool integral = std::holds_alternative<std::int64_t>(lhs) &&
                          std::holds_alternative<std::int64_t>(rhs);
    if (integral) {
      const std::int64_t a = std::get<std::int64_t>(lhs);
      const std::int64_t b = std::get<std::int64_t>(rhs);
      switch (op) {
        case BinaryOp::kAdd:
          return a + b;
        case BinaryOp::kSub:
          return a - b;
        case BinaryOp::kMul:
          return a * b;
        case BinaryOp::kDiv:
          if (b == 0) return SqlNull{};
          return a / b;
        default:
          return SqlNull{};
      }
    }
    const double a = sql_as_double(lhs);
    const double b = sql_as_double(rhs);
    switch (op) {
      case BinaryOp::kAdd:
        return a + b;
      case BinaryOp::kSub:
        return a - b;
      case BinaryOp::kMul:
        return a * b;
      case BinaryOp::kDiv:
        if (b == 0.0) return SqlNull{};
        return a / b;
      default:
        return SqlNull{};
    }
  }

  static Tri compare(BinaryOp op, const SqlValue& lhs, const SqlValue& rhs) {
    if (is_numeric(lhs) && is_numeric(rhs)) {
      const double a = sql_as_double(lhs);
      const double b = sql_as_double(rhs);
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
      // SQL strings order lexicographically (unlike JMS selectors).
      const auto& a = std::get<std::string>(lhs);
      const auto& b = std::get<std::string>(rhs);
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
    return Tri::kUnknown;
  }

  const TableDef& table_;
  const std::vector<SqlValue>& row_;
};

}  // namespace

Tri evaluate_predicate(const Expr& expr, const TableDef& table,
                       const std::vector<SqlValue>& row) {
  return value_to_tri(Evaluator(table, row).eval(expr));
}

}  // namespace gridmon::rgma::sql
