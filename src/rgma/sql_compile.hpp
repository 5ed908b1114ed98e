// Predicate compiler: lowers a parsed WHERE Expr into a flat program.
//
// An AST interpreter re-walks the shared_ptr AST — a visit
// dispatch, a by-name column lookup and an SqlValue variant round-trip per
// node — for every tuple. A continuous query evaluates its predicate tens
// of thousands of times against the same TableDef, so the AST walk is pure
// overhead after the first evaluation. CompiledPredicate lowers the tree
// once per (predicate, table): column references resolve to row indices,
// literals land in a constant pool (string storage interned and stable),
// constant subtrees fold at compile time, and evaluation becomes a tight
// postfix loop over a tagged-scalar stack.
//
// Semantics contract: evaluate() returns exactly what the AST interpreter
// evaluate_predicate() (the test oracle in tests/oracles/sql_eval.hpp)
// returns for every (expr, table, row) — including NULL/UNKNOWN
// propagation, type-mismatch rules, division by zero, and unknown or
// out-of-range columns. AND/OR short-circuit through relative skip ops on
// the same deciding values as the interpreter (FALSE for AND, TRUE for
// OR); operand evaluation is pure, so the skipped code is unobservable.
// A peephole pass fuses the dominant `column OP constant` and
// `column BETWEEN c1 AND c2` shapes into single ops. The randomized
// equivalence test (sql_compile_test) pins all of this.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "rgma/schema.hpp"
#include "rgma/sql_ast.hpp"
#include "util/tri.hpp"

namespace gridmon::rgma::sql {

/// SQL three-valued logic: only a TRUE predicate selects a row.
using util::Tri;
using util::tri_and;
using util::tri_not;
using util::tri_or;

/// SQL LIKE match with % and _ (no escape support in the R-GMA subset).
[[nodiscard]] bool sql_like(const std::string& text,
                            const std::string& pattern);

class CompiledPredicate {
 public:
  /// Empty program: no predicate, selects every row (mirrors the null
  /// ExprPtr convention of predicate_selects).
  CompiledPredicate() = default;

  // Move-only: the constant pool borrows pointers into this program's own
  // string storage, so a memberwise copy would dangle.
  CompiledPredicate(const CompiledPredicate&) = delete;
  CompiledPredicate& operator=(const CompiledPredicate&) = delete;
  CompiledPredicate(CompiledPredicate&&) = default;
  CompiledPredicate& operator=(CompiledPredicate&&) = default;

  /// Lower `expr` against `table`. A null expr compiles to the empty
  /// program.
  [[nodiscard]] static CompiledPredicate compile(const ExprPtr& expr,
                                                 const TableDef& table);

  [[nodiscard]] bool empty() const { return code_.empty(); }

  /// Three-valued result, identical to evaluate_predicate().
  [[nodiscard]] Tri evaluate(const std::vector<SqlValue>& row) const;

  /// Only TRUE selects (UNKNOWN rejects), identical to predicate_selects().
  [[nodiscard]] bool selects(const std::vector<SqlValue>& row) const {
    if (code_.empty()) return true;
    return evaluate(row) == Tri::kTrue;
  }

  /// Bytes this program holds live (code + pools), for the
  /// mem_predicate_cache profile category.
  [[nodiscard]] std::int64_t footprint_bytes() const;

 private:
  /// Tagged scalar on the evaluation stack. Strings are borrowed: they
  /// point into the constant pool or into the row being evaluated.
  /// Deliberately trivial (no default member initializers) so the inline
  /// evaluation stack is uninitialized storage — zeroing 32 slots per
  /// call would dwarf a short program's real work. `Val{}` value-
  /// initializes to all-zero, which is kNull.
  struct Val {
    enum class Kind : std::uint8_t { kNull, kInt, kDouble, kStr };
    Kind kind;
    std::int64_t i;
    double d;
    const std::string* s;
  };

  enum class OpCode : std::uint8_t {
    kPushConst,   ///< a = constant-pool index
    kPushColumn,  ///< a = resolved row index
    kNeg,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kCmpEq,
    kCmpNeq,
    kCmpLt,
    kCmpLe,
    kCmpGt,
    kCmpGe,
    kAnd,
    kOr,
    kBetween,  ///< pops high, low, value
    kIn,       ///< a = list-pool offset, b = option count
    kLike,     ///< a = pattern-pool index
    kIsNull,
    // Short-circuit: if the value on top decides the conjunction /
    // disjunction, replace it with the decided value and jump a ops
    // forward (relative, one past the matching kAnd / kOr combiner).
    kAndSkip,  ///< a = relative jump offset, taken on FALSE
    kOrSkip,   ///< a = relative jump offset, taken on TRUE
    // Superinstructions fused from [kPushColumn][kPushConst][kCmp*] and
    // [kPushColumn][kPushConst][kPushConst][kBetween] triples/quads.
    // Order mirrors kCmpEq..kCmpGe so the base opcode is recoverable by
    // offset. a = row index, b = constant-pool index (BETWEEN's high
    // bound lives at b + 1).
    kCmpColConstEq,
    kCmpColConstNeq,
    kCmpColConstLt,
    kCmpColConstLe,
    kCmpColConstGt,
    kCmpColConstGe,
    kBetweenColConst,
  };

  struct Op {
    OpCode code;
    bool negated = false;  ///< NOT BETWEEN / NOT IN / NOT LIKE / IS NOT NULL
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  class Lowerer;

  /// Peephole superinstruction pass run once after lowering.
  void fuse();

  [[nodiscard]] static Tri tri_of(const Val& v);
  [[nodiscard]] static Val val_of(Tri t);
  [[nodiscard]] static Val load_column(const std::vector<SqlValue>& row,
                                       std::uint32_t index);
  [[nodiscard]] static Val arith(OpCode op, const Val& lhs, const Val& rhs);
  [[nodiscard]] static Tri cmp(OpCode op, const Val& lhs, const Val& rhs);

  std::vector<Op> code_;
  std::vector<Val> consts_;     ///< kPushConst pool
  std::vector<Val> list_pool_;  ///< IN-list options, contiguous per op
  /// Owned string storage the Vals above point into (deque: stable
  /// addresses across growth).
  std::deque<std::string> strings_;
  std::vector<std::string> patterns_;  ///< LIKE patterns
  std::size_t max_stack_ = 0;
};

}  // namespace gridmon::rgma::sql
