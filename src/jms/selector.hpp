// JMS message selectors (JMS 1.1 §3.8): a SQL-92 conditional-expression
// subset evaluated against a message's headers and properties.
//
// Supported, per the spec: identifiers; exact/approximate numeric, string
// and boolean literals (and NULL); comparison operators =, <>, <, <=, >, >=
// (string and boolean comparison limited to = and <>); arithmetic + - * /
// with unary sign; logical AND/OR/NOT with SQL three-valued logic;
// BETWEEN ... AND ...; IN (...) of string literals; LIKE with % and _
// wildcards and optional ESCAPE; IS [NOT] NULL. The grammar is the SQL-92
// condition front end R-GMA's WHERE clauses share (util/sql_condition.hpp);
// this file adds the JMS evaluation rules.
//
// The paper's subscriber uses the selector "id<10000" — present here not as
// a stub but as one expression in a full grammar, because selector
// evaluation cost is part of the broker service-time model.
#pragma once

#include <string>
#include <string_view>

#include "jms/message.hpp"
#include "util/sql_condition.hpp"
#include "util/tri.hpp"

namespace gridmon::jms {

/// SQL three-valued logic.
using util::Tri;
using util::tri_and;
using util::tri_not;
using util::tri_or;

using SelectorParseError = util::sql::ParseError;

class Selector {
 public:
  /// Empty/blank text yields a match-everything selector, as in JMS.
  static Selector parse(std::string_view text);

  Selector() = default;

  /// JMS match semantics: only a TRUE result matches.
  [[nodiscard]] bool matches(const Message& message) const {
    return evaluate(message) == Tri::kTrue;
  }

  /// Full three-valued result, exposed for tests.
  [[nodiscard]] Tri evaluate(const Message& message) const;

  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] bool trivial() const { return root_ == nullptr; }

 private:
  std::string text_;
  util::sql::ExprPtr root_;
};

}  // namespace gridmon::jms
