// The SQL subset R-GMA speaks, parsed with the shared SQL-92 condition
// front end (util/sql_condition.hpp):
//
//   statement   := create_table | insert | select
//   create_table:= CREATE TABLE name '(' col_def (',' col_def)* ')'
//   col_def     := name type
//   type        := INTEGER | INT | REAL | DOUBLE [PRECISION]
//                | CHAR ['(' int ')'] | VARCHAR ['(' int ')'] | TIMESTAMP
//   insert      := INSERT INTO name ['(' name (',' name)* ')']
//                  VALUES '(' literal (',' literal)* ')'
//   select      := SELECT ('*' | name (',' name)*) FROM name
//                  [WHERE condition]
//
// Statement words are case-insensitive and never a table or column name;
// inside a condition, where JMS selectors may use them, they are names.
#pragma once

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "rgma/schema.hpp"
#include "rgma/sql_value.hpp"
#include "util/sql_condition.hpp"

namespace gridmon::rgma::sql {

using util::sql::Expr;
using util::sql::ExprPtr;
using SqlParseError = util::sql::ParseError;

struct CreateTable {
  TableDef table;
};

struct Insert {
  std::string table;
  std::vector<std::string> columns;  ///< empty = positional
  std::vector<SqlValue> values;
};

struct Select {
  std::vector<std::string> columns;  ///< empty = '*'
  std::string table;
  ExprPtr where;  ///< null = no predicate
  /// The source text after the WHERE keyword ("" without one), which the
  /// mediator forwards to producers for predicate push-down.
  std::string where_text;
};

using Statement = std::variant<CreateTable, Insert, Select>;

/// Parse one statement. Throws SqlParseError on malformed input.
[[nodiscard]] Statement parse_statement(std::string_view source);

/// Parse just a predicate expression (used for consumer query predicates
/// and registry mediation).
[[nodiscard]] ExprPtr parse_predicate(std::string_view source);

/// The SqlValue a parsed literal denotes: TRUE and FALSE are 1 and 0, as
/// the predicate evaluator encodes truth.
[[nodiscard]] SqlValue sql_value(util::sql::Literal literal);

/// Render an INSERT statement for a row (what the producer API sends over
/// the wire).
[[nodiscard]] std::string render_insert(const std::string& table,
                                        const std::vector<SqlValue>& values);

}  // namespace gridmon::rgma::sql
