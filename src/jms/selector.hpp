// JMS message selectors (JMS 1.1 §3.8): a SQL-92 conditional-expression
// subset evaluated against a message's headers and properties.
//
// Supported, per the spec: identifiers; exact/approximate numeric, string
// and boolean literals; comparison operators =, <>, <, <=, >, >= (string and
// boolean comparison limited to = and <>); arithmetic + - * / with unary
// sign; logical AND/OR/NOT with SQL three-valued logic; BETWEEN ... AND ...;
// IN (...); LIKE with % and _ wildcards and optional ESCAPE; IS [NOT] NULL.
//
// The paper's subscriber uses the selector "id<10000" — present here not as
// a stub but as one expression in a full grammar, because selector
// evaluation cost is part of the broker service-time model.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "jms/message.hpp"
#include "util/tri.hpp"

namespace gridmon::jms {

/// SQL three-valued logic.
using util::Tri;
using util::tri_and;
using util::tri_not;
using util::tri_or;

class SelectorParseError : public std::runtime_error {
 public:
  SelectorParseError(const std::string& what, std::size_t position)
      : std::runtime_error(what + " (at offset " + std::to_string(position) +
                           ")"),
        position_(position) {}
  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

namespace ast {
struct Expr;
}

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
  std::shared_ptr<const ast::Expr> root_;
};

}  // namespace gridmon::jms
