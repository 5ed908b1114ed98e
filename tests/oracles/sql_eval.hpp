// The R-GMA WHERE-predicate AST interpreter, kept as the test oracle for
// rgma::sql::CompiledPredicate: it looks each column up by name per row,
// and sql_compile_test checks the bound predicate walk against it on
// randomized predicates and rows.
#pragma once

#include <vector>

#include "rgma/schema.hpp"
#include "rgma/sql_compile.hpp"

namespace gridmon::rgma::sql {

/// Evaluate a predicate on a row described by `table`. Column references
/// not present in the table evaluate to NULL (→ UNKNOWN), as does any type
/// mismatch. Only a TRUE result selects the row.
[[nodiscard]] Tri evaluate_predicate(const Expr& expr, const TableDef& table,
                                     const std::vector<SqlValue>& row);

[[nodiscard]] inline bool predicate_selects(const ExprPtr& expr,
                                            const TableDef& table,
                                            const std::vector<SqlValue>& row) {
  if (!expr) return true;
  return evaluate_predicate(*expr, table, row) == Tri::kTrue;
}

}  // namespace gridmon::rgma::sql
