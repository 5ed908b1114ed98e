// A WHERE predicate bound to the table it filters.
//
// A continuous query evaluates its predicate against every streamed tuple
// of one table, so compile() resolves each column reference to its row
// index once per (predicate, table); evaluate() then walks the parsed Expr
// per tuple with SQL three-valued logic. Truth is integer 1/0 (so TRUE and
// FALSE literals are 1 and 0), NULL operands and type mismatches make a
// comparison UNKNOWN, unary plus leaves its operand as it is, integer and
// floating division by zero is NULL, AND/OR short-circuit on FALSE/TRUE,
// and a column the table does not define (or a row too short to hold it)
// reads NULL. Only TRUE selects. sql_compile_test checks every result
// against the by-name interpreter in tests/oracles/sql_eval.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rgma/schema.hpp"
#include "rgma/sql_parser.hpp"
#include "util/tri.hpp"

namespace gridmon::rgma::sql {

/// SQL three-valued logic: only a TRUE predicate selects a row.
using util::Tri;
using util::tri_and;
using util::tri_not;
using util::tri_or;

/// Model-memory charges for the mem_predicate_cache profile category:
/// pinned constants rather than the host's sizeof, so changing how a
/// predicate is held moves no memory figure. A bound WHERE predicate
/// charges what the `id < 1000000` filter of every single-server consumer
/// was charged as a compiled program; a query without one (the secondary
/// producer's) what the empty program was.
inline constexpr std::int64_t kPredicateBytes = 228;
inline constexpr std::int64_t kNoPredicateBytes = 184;

class CompiledPredicate {
 public:
  /// No predicate: selects every row (the null ExprPtr convention).
  CompiledPredicate() = default;

  /// Bind `expr` to `table`. A null expr binds the empty predicate.
  [[nodiscard]] static CompiledPredicate compile(const ExprPtr& expr,
                                                 const TableDef& table);

  [[nodiscard]] bool empty() const { return expr_ == nullptr; }

  /// Three-valued result; UNKNOWN for the empty predicate.
  [[nodiscard]] Tri evaluate(const std::vector<SqlValue>& row) const;

  /// Only TRUE selects (UNKNOWN rejects); the empty predicate selects all.
  [[nodiscard]] bool selects(const std::vector<SqlValue>& row) const {
    return empty() || evaluate(row) == Tri::kTrue;
  }

  /// kPredicateBytes, or kNoPredicateBytes for the empty predicate.
  [[nodiscard]] std::int64_t footprint_bytes() const {
    return empty() ? kNoPredicateBytes : kPredicateBytes;
  }

 private:
  [[nodiscard]] SqlValue eval(const Expr& expr,
                              const std::vector<SqlValue>& row) const;

  ExprPtr expr_;
  /// Each column reference in expr_ with its row index; a column the table
  /// does not define gets an index no row reaches, so it reads NULL.
  std::vector<std::pair<const util::sql::Identifier*, std::size_t>> columns_;
};

}  // namespace gridmon::rgma::sql
