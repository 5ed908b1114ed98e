#include "rgma/sql_compile.hpp"

#include <utility>

namespace gridmon::rgma::sql {

namespace {
/// Stack slots evaluated without touching the heap; deeper programs (only
/// reachable through adversarial nesting, not the scenario predicates)
/// fall back to a heap-allocated stack.
constexpr std::size_t kInlineStack = 32;
}  // namespace

bool sql_like(const std::string& text, const std::string& pattern) {
  const std::size_t tn = text.size();
  const std::size_t pn = pattern.size();
  std::size_t ti = 0;
  std::size_t pi = 0;
  std::size_t star_pi = std::string::npos;
  std::size_t star_ti = 0;
  while (ti < tn) {
    if (pi < pn && pattern[pi] == '%') {
      star_pi = pi++;
      star_ti = ti;
      continue;
    }
    if (pi < pn && (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++pi;
      ++ti;
      continue;
    }
    if (star_pi != std::string::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
      continue;
    }
    return false;
  }
  while (pi < pn && pattern[pi] == '%') ++pi;
  return pi == pn;
}

// --- shared compile-time / run-time semantics -------------------------------

Tri CompiledPredicate::tri_of(const Val& v) {
  // Predicates produce int64 0/1; anything else is UNKNOWN (value_to_tri).
  if (v.kind == Val::Kind::kInt) return v.i != 0 ? Tri::kTrue : Tri::kFalse;
  return Tri::kUnknown;
}

CompiledPredicate::Val CompiledPredicate::val_of(Tri t) {
  Val v{};
  if (t == Tri::kUnknown) return v;
  v.kind = Val::Kind::kInt;
  v.i = t == Tri::kTrue ? 1 : 0;
  return v;
}

CompiledPredicate::Val CompiledPredicate::arith(OpCode op, const Val& lhs,
                                                const Val& rhs) {
  Val out{};
  const auto numeric = [](const Val& v) {
    return v.kind == Val::Kind::kInt || v.kind == Val::Kind::kDouble;
  };
  if (!numeric(lhs) || !numeric(rhs)) return out;  // NULL / string operand
  if (lhs.kind == Val::Kind::kInt && rhs.kind == Val::Kind::kInt) {
    const std::int64_t a = lhs.i;
    const std::int64_t b = rhs.i;
    out.kind = Val::Kind::kInt;
    switch (op) {
      case OpCode::kAdd:
        out.i = a + b;
        return out;
      case OpCode::kSub:
        out.i = a - b;
        return out;
      case OpCode::kMul:
        out.i = a * b;
        return out;
      case OpCode::kDiv:
        if (b == 0) return Val{};
        out.i = a / b;
        return out;
      default:
        return Val{};
    }
  }
  const double a = lhs.kind == Val::Kind::kInt ? static_cast<double>(lhs.i)
                                               : lhs.d;
  const double b = rhs.kind == Val::Kind::kInt ? static_cast<double>(rhs.i)
                                               : rhs.d;
  out.kind = Val::Kind::kDouble;
  switch (op) {
    case OpCode::kAdd:
      out.d = a + b;
      return out;
    case OpCode::kSub:
      out.d = a - b;
      return out;
    case OpCode::kMul:
      out.d = a * b;
      return out;
    case OpCode::kDiv:
      if (b == 0.0) return Val{};
      out.d = a / b;
      return out;
    default:
      return Val{};
  }
}

Tri CompiledPredicate::cmp(OpCode op, const Val& lhs, const Val& rhs) {
  // Callers have already handled NULL operands.
  const auto numeric = [](const Val& v) {
    return v.kind == Val::Kind::kInt || v.kind == Val::Kind::kDouble;
  };
  if (numeric(lhs) && numeric(rhs)) {
    const double a = lhs.kind == Val::Kind::kInt ? static_cast<double>(lhs.i)
                                                 : lhs.d;
    const double b = rhs.kind == Val::Kind::kInt ? static_cast<double>(rhs.i)
                                                 : rhs.d;
    switch (op) {
      case OpCode::kCmpEq:
        return a == b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpNeq:
        return a != b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpLt:
        return a < b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpLe:
        return a <= b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpGt:
        return a > b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpGe:
        return a >= b ? Tri::kTrue : Tri::kFalse;
      default:
        return Tri::kUnknown;
    }
  }
  if (lhs.kind == Val::Kind::kStr && rhs.kind == Val::Kind::kStr) {
    const std::string& a = *lhs.s;
    const std::string& b = *rhs.s;
    switch (op) {
      case OpCode::kCmpEq:
        return a == b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpNeq:
        return a != b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpLt:
        return a < b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpLe:
        return a <= b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpGt:
        return a > b ? Tri::kTrue : Tri::kFalse;
      case OpCode::kCmpGe:
        return a >= b ? Tri::kTrue : Tri::kFalse;
      default:
        return Tri::kUnknown;
    }
  }
  return Tri::kUnknown;  // mixed numeric/string
}

// --- lowering ---------------------------------------------------------------

class CompiledPredicate::Lowerer {
 public:
  Lowerer(CompiledPredicate& out, const TableDef& table)
      : out_(out), table_(table) {}

  void lower_root(const Expr& expr) {
    const Result root = lower(expr);
    if (root.constant) push_const(root.value);
  }

 private:
  /// Either a compile-time value (nothing emitted) or code left on out_.
  struct Result {
    bool constant = false;
    Val value;
  };

  Result lower(const Expr& expr) {
    return std::visit([this](const auto& node) { return lower_node(node); },
                      expr.node);
  }

  /// Borrow an AST literal as a Val without copying its string.
  static Val borrow(const SqlValue& v) {
    Val out{};
    switch (v.index()) {
      case 1:
        out.kind = Val::Kind::kInt;
        out.i = std::get<std::int64_t>(v);
        break;
      case 2:
        out.kind = Val::Kind::kDouble;
        out.d = std::get<double>(v);
        break;
      case 3:
        out.kind = Val::Kind::kStr;
        out.s = &std::get<std::string>(v);
        break;
      default:
        break;
    }
    return out;
  }

  /// Copy a Val into program-owned storage (strings into the pool).
  Val intern(const Val& v) {
    if (v.kind != Val::Kind::kStr) return v;
    Val owned = v;
    owned.s = &out_.strings_.emplace_back(*v.s);
    return owned;
  }

  void emit(Op op) { out_.code_.push_back(op); }

  void push_const(const Val& v) {
    out_.consts_.push_back(intern(v));
    emit(Op{OpCode::kPushConst, false,
            static_cast<std::uint32_t>(out_.consts_.size() - 1), 0});
  }

  /// Materialize a folded constant at an earlier code position so stack
  /// order matches operand order.
  void insert_const(std::size_t at, const Val& v) {
    out_.consts_.push_back(intern(v));
    out_.code_.insert(
        out_.code_.begin() + static_cast<std::ptrdiff_t>(at),
        Op{OpCode::kPushConst, false,
           static_cast<std::uint32_t>(out_.consts_.size() - 1), 0});
  }

  struct Operand {
    Result result;
    std::size_t mark;  ///< code position before this operand's code
  };

  /// Lower each operand in order. Returns true when every operand folded
  /// to a constant (caller folds the node); otherwise materializes the
  /// constant operands at their stack positions.
  bool lower_operands(std::initializer_list<const Expr*> exprs,
                      std::vector<Operand>& operands) {
    bool all_constant = true;
    for (const Expr* expr : exprs) {
      Operand operand;
      operand.mark = out_.code_.size();
      operand.result = lower(*expr);
      all_constant = all_constant && operand.result.constant;
      operands.push_back(std::move(operand));
    }
    if (all_constant) return true;
    std::size_t shift = 0;
    for (const Operand& operand : operands) {
      if (!operand.result.constant) continue;
      insert_const(operand.mark + shift, operand.result.value);
      ++shift;
    }
    return false;
  }

  Result lower_node(const Literal& lit) { return {true, borrow(lit.value)}; }

  Result lower_node(const ColumnRef& ref) {
    const auto index = table_.column_index(ref.name);
    // A column the table does not define is NULL on every row; one the
    // table defines still bounds-checks against the row at evaluation
    // (rows shorter than the schema evaluate trailing columns as NULL).
    if (!index) return {true, Val{}};
    emit(Op{OpCode::kPushColumn, false, static_cast<std::uint32_t>(*index),
            0});
    return {};
  }

  Result lower_node(const Unary& unary) {
    const Result operand = lower(*unary.operand);
    if (unary.op == UnaryOp::kNot) {
      if (operand.constant) {
        return {true, val_of(tri_not(tri_of(operand.value)))};
      }
      emit(Op{OpCode::kNot});
      return {};
    }
    if (operand.constant) return {true, fold_neg(operand.value)};
    emit(Op{OpCode::kNeg});
    return {};
  }

  static Val fold_neg(const Val& v) {
    Val out{};
    if (v.kind == Val::Kind::kInt) {
      out.kind = Val::Kind::kInt;
      out.i = -v.i;
    } else if (v.kind == Val::Kind::kDouble) {
      out.kind = Val::Kind::kDouble;
      out.d = -v.d;
    }
    return out;  // NULL / string negate to NULL
  }

  static OpCode binary_opcode(BinaryOp op) {
    switch (op) {
      case BinaryOp::kAnd:
        return OpCode::kAnd;
      case BinaryOp::kOr:
        return OpCode::kOr;
      case BinaryOp::kAdd:
        return OpCode::kAdd;
      case BinaryOp::kSub:
        return OpCode::kSub;
      case BinaryOp::kMul:
        return OpCode::kMul;
      case BinaryOp::kDiv:
        return OpCode::kDiv;
      case BinaryOp::kEq:
        return OpCode::kCmpEq;
      case BinaryOp::kNeq:
        return OpCode::kCmpNeq;
      case BinaryOp::kLt:
        return OpCode::kCmpLt;
      case BinaryOp::kLe:
        return OpCode::kCmpLe;
      case BinaryOp::kGt:
        return OpCode::kCmpGt;
      case BinaryOp::kGe:
        return OpCode::kCmpGe;
    }
    return OpCode::kCmpEq;
  }

  static Val fold_binary(OpCode op, const Val& lhs, const Val& rhs) {
    if (op == OpCode::kAnd) return val_of(tri_and(tri_of(lhs), tri_of(rhs)));
    if (op == OpCode::kOr) return val_of(tri_or(tri_of(lhs), tri_of(rhs)));
    if (lhs.kind == Val::Kind::kNull || rhs.kind == Val::Kind::kNull) {
      return Val{};
    }
    switch (op) {
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
        return arith(op, lhs, rhs);
      default:
        return val_of(cmp(op, lhs, rhs));
    }
  }

  Result lower_node(const Binary& binary) {
    const OpCode op = binary_opcode(binary.op);
    if (op == OpCode::kAnd || op == OpCode::kOr) {
      return lower_logical(op, binary);
    }
    std::vector<Operand> operands;
    if (lower_operands({binary.lhs.get(), binary.rhs.get()}, operands)) {
      return {true, fold_binary(op, operands[0].result.value,
                                operands[1].result.value)};
    }
    emit(Op{op});
    return {};
  }

  /// AND / OR with the interpreter's short-circuit: a deciding lhs (FALSE
  /// for AND, TRUE for OR) skips the rhs entirely. Operands are pure, so
  /// a deciding *constant* lhs folds without lowering the rhs at all.
  Result lower_logical(OpCode op, const Binary& binary) {
    const bool is_and = op == OpCode::kAnd;
    const Result lhs = lower(*binary.lhs);
    if (lhs.constant) {
      const Tri decided = tri_of(lhs.value);
      if (decided == (is_and ? Tri::kFalse : Tri::kTrue)) {
        return {true, val_of(decided)};
      }
      const std::size_t mark = out_.code_.size();
      const Result rhs = lower(*binary.rhs);
      if (rhs.constant) return {true, fold_binary(op, lhs.value, rhs.value)};
      // Non-deciding constant lhs: materialize it under the rhs code so
      // the combiner sees operands in order. No skip — it never fires.
      insert_const(mark, lhs.value);
      emit(Op{op});
      return {};
    }
    // lhs left code behind: jump over the rhs when it decides. The offset
    // is relative to the skip's own index, which keeps it stable when an
    // enclosing operand list later inserts constants — those land at
    // region boundaries, never strictly inside [skip, combiner].
    const std::size_t skip_at = out_.code_.size();
    emit(Op{is_and ? OpCode::kAndSkip : OpCode::kOrSkip});
    const Result rhs = lower(*binary.rhs);
    if (rhs.constant) push_const(rhs.value);
    emit(Op{op});
    out_.code_[skip_at].a =
        static_cast<std::uint32_t>(out_.code_.size() - skip_at);
    return {};
  }

  Result lower_node(const Between& between) {
    std::vector<Operand> operands;
    if (lower_operands(
            {between.value.get(), between.low.get(), between.high.get()},
            operands)) {
      const Val& value = operands[0].result.value;
      const Val& low = operands[1].result.value;
      const Val& high = operands[2].result.value;
      if (value.kind == Val::Kind::kNull || low.kind == Val::Kind::kNull ||
          high.kind == Val::Kind::kNull) {
        return {true, Val{}};
      }
      Tri result = tri_and(cmp(OpCode::kCmpGe, value, low),
                           cmp(OpCode::kCmpLe, value, high));
      if (between.negated) result = tri_not(result);
      return {true, val_of(result)};
    }
    emit(Op{OpCode::kBetween, between.negated});
    return {};
  }

  Result lower_node(const InList& in) {
    const Result value = lower(*in.value);
    if (value.constant) {
      if (value.value.kind == Val::Kind::kNull) return {true, Val{}};
      bool found = false;
      for (const SqlValue& option : in.options) {
        const Val ov = borrow(option);
        if (ov.kind != Val::Kind::kNull &&
            cmp(OpCode::kCmpEq, value.value, ov) == Tri::kTrue) {
          found = true;
          break;
        }
      }
      const bool hit = in.negated ? !found : found;
      return {true, val_of(hit ? Tri::kTrue : Tri::kFalse)};
    }
    const auto offset = static_cast<std::uint32_t>(out_.list_pool_.size());
    for (const SqlValue& option : in.options) {
      out_.list_pool_.push_back(intern(borrow(option)));
    }
    emit(Op{OpCode::kIn, in.negated, offset,
            static_cast<std::uint32_t>(in.options.size())});
    return {};
  }

  Result lower_node(const Like& like) {
    const Result value = lower(*like.value);
    if (value.constant) {
      if (value.value.kind != Val::Kind::kStr) return {true, Val{}};
      const bool matched = sql_like(*value.value.s, like.pattern);
      const bool hit = like.negated ? !matched : matched;
      return {true, val_of(hit ? Tri::kTrue : Tri::kFalse)};
    }
    out_.patterns_.push_back(like.pattern);
    emit(Op{OpCode::kLike, like.negated,
            static_cast<std::uint32_t>(out_.patterns_.size() - 1), 0});
    return {};
  }

  Result lower_node(const IsNull& isnull) {
    const Result value = lower(*isnull.value);
    if (value.constant) {
      const bool null = value.value.kind == Val::Kind::kNull;
      const bool hit = isnull.negated ? !null : null;
      return {true, val_of(hit ? Tri::kTrue : Tri::kFalse)};
    }
    emit(Op{OpCode::kIsNull, isnull.negated});
    return {};
  }

  CompiledPredicate& out_;
  const TableDef& table_;
};

namespace {
[[nodiscard]] constexpr bool is_cmp(std::uint8_t code, std::uint8_t eq,
                                    std::uint8_t ge) {
  return code >= eq && code <= ge;
}
}  // namespace

/// Peephole pass: the scenario predicates are almost entirely
/// `column OP constant` and `column BETWEEN c1 AND c2` leaves, which the
/// lowerer emits as push/push/compare triples. Fuse each into one op so
/// the hot loop pays one dispatch instead of three. Relative jump offsets
/// are remapped through an old→new index table; targets always point one
/// past a combiner, never inside a fused group.
void CompiledPredicate::fuse() {
  const auto raw = [](OpCode c) { return static_cast<std::uint8_t>(c); };
  std::vector<Op> fused;
  fused.reserve(code_.size());
  std::vector<std::uint32_t> new_index(code_.size() + 1);
  std::size_t i = 0;
  while (i < code_.size()) {
    const auto pos = static_cast<std::uint32_t>(fused.size());
    if (code_[i].code == OpCode::kPushColumn && i + 2 < code_.size() &&
        code_[i + 1].code == OpCode::kPushConst) {
      if (is_cmp(raw(code_[i + 2].code), raw(OpCode::kCmpEq),
                 raw(OpCode::kCmpGe))) {
        const auto fused_code = static_cast<OpCode>(
            raw(OpCode::kCmpColConstEq) +
            (raw(code_[i + 2].code) - raw(OpCode::kCmpEq)));
        fused.push_back(Op{fused_code, false, code_[i].a, code_[i + 1].a});
        new_index[i] = new_index[i + 1] = new_index[i + 2] = pos;
        i += 3;
        continue;
      }
      if (i + 3 < code_.size() && code_[i + 2].code == OpCode::kPushConst &&
          code_[i + 3].code == OpCode::kBetween &&
          code_[i + 2].a == code_[i + 1].a + 1) {
        fused.push_back(Op{OpCode::kBetweenColConst, code_[i + 3].negated,
                           code_[i].a, code_[i + 1].a});
        new_index[i] = new_index[i + 1] = new_index[i + 2] =
            new_index[i + 3] = pos;
        i += 4;
        continue;
      }
    }
    new_index[i] = pos;
    fused.push_back(code_[i]);
    ++i;
  }
  new_index[code_.size()] = static_cast<std::uint32_t>(fused.size());
  for (std::size_t old = 0; old < code_.size(); ++old) {
    const Op& op = code_[old];
    if (op.code != OpCode::kAndSkip && op.code != OpCode::kOrSkip) continue;
    fused[new_index[old]].a = new_index[old + op.a] - new_index[old];
  }
  code_ = std::move(fused);
}

CompiledPredicate CompiledPredicate::compile(const ExprPtr& expr,
                                             const TableDef& table) {
  CompiledPredicate program;
  if (!expr) return program;
  Lowerer(program, table).lower_root(*expr);
  program.fuse();
  program.code_.shrink_to_fit();
  program.consts_.shrink_to_fit();
  program.list_pool_.shrink_to_fit();
  program.patterns_.shrink_to_fit();

  // Compute the evaluation stack's high-water mark. Skips are taken only
  // when the region's result is already on the stack, so the linear scan
  // over-approximates safely.
  std::size_t depth = 0;
  for (const Op& op : program.code_) {
    switch (op.code) {
      case OpCode::kPushConst:
      case OpCode::kPushColumn:
      case OpCode::kCmpColConstEq:
      case OpCode::kCmpColConstNeq:
      case OpCode::kCmpColConstLt:
      case OpCode::kCmpColConstLe:
      case OpCode::kCmpColConstGt:
      case OpCode::kCmpColConstGe:
      case OpCode::kBetweenColConst:
        ++depth;
        program.max_stack_ = std::max(program.max_stack_, depth);
        break;
      case OpCode::kBetween:
        depth -= 2;
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kCmpEq:
      case OpCode::kCmpNeq:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe:
      case OpCode::kAnd:
      case OpCode::kOr:
        --depth;
        break;
      default:
        break;  // unary ops and skips are stack-neutral
    }
  }
  return program;
}

// --- evaluation -------------------------------------------------------------

/// Row cell → tagged scalar; out-of-range and NULL cells are kNull (rows
/// shorter than the schema evaluate trailing columns as NULL).
CompiledPredicate::Val CompiledPredicate::load_column(
    const std::vector<SqlValue>& row, std::uint32_t index) {
  Val v{};
  if (index >= row.size()) return v;
  const SqlValue& cell = row[index];
  switch (cell.index()) {
    case 1:
      v.kind = Val::Kind::kInt;
      v.i = std::get<std::int64_t>(cell);
      break;
    case 2:
      v.kind = Val::Kind::kDouble;
      v.d = std::get<double>(cell);
      break;
    case 3:
      v.kind = Val::Kind::kStr;
      v.s = &std::get<std::string>(cell);
      break;
    default:
      break;  // NULL cell
  }
  return v;
}

Tri CompiledPredicate::evaluate(const std::vector<SqlValue>& row) const {
  if (code_.empty()) return Tri::kUnknown;  // no predicate lowered
  // Uninitialized on purpose: Val is trivial and every slot is written
  // before it is read (max_stack_ bounds the high-water mark).
  Val inline_stack[kInlineStack];
  std::vector<Val> heap_stack;
  Val* stack = inline_stack;
  if (max_stack_ > kInlineStack) {
    heap_stack.resize(max_stack_);
    stack = heap_stack.data();
  }
  std::size_t top = 0;

  const std::size_t end = code_.size();
  std::size_t pc = 0;
  while (pc < end) {
    const Op& op = code_[pc];
    switch (op.code) {
      case OpCode::kPushConst:
        stack[top++] = consts_[op.a];
        break;
      case OpCode::kPushColumn:
        stack[top++] = load_column(row, op.a);
        break;
      case OpCode::kNeg: {
        Val& v = stack[top - 1];
        if (v.kind == Val::Kind::kInt) {
          v.i = -v.i;
        } else if (v.kind == Val::Kind::kDouble) {
          v.d = -v.d;
        } else {
          v = Val{};
        }
        break;
      }
      case OpCode::kNot: {
        Val& v = stack[top - 1];
        v = val_of(tri_not(tri_of(v)));
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv: {
        const Val rhs = stack[--top];
        Val& lhs = stack[top - 1];
        lhs = (lhs.kind == Val::Kind::kNull || rhs.kind == Val::Kind::kNull)
                  ? Val{}
                  : arith(op.code, lhs, rhs);
        break;
      }
      case OpCode::kCmpEq:
      case OpCode::kCmpNeq:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe: {
        const Val rhs = stack[--top];
        Val& lhs = stack[top - 1];
        lhs = (lhs.kind == Val::Kind::kNull || rhs.kind == Val::Kind::kNull)
                  ? Val{}
                  : val_of(cmp(op.code, lhs, rhs));
        break;
      }
      case OpCode::kAnd: {
        const Val rhs = stack[--top];
        Val& lhs = stack[top - 1];
        lhs = val_of(tri_and(tri_of(lhs), tri_of(rhs)));
        break;
      }
      case OpCode::kOr: {
        const Val rhs = stack[--top];
        Val& lhs = stack[top - 1];
        lhs = val_of(tri_or(tri_of(lhs), tri_of(rhs)));
        break;
      }
      case OpCode::kBetween: {
        const Val high = stack[--top];
        const Val low = stack[--top];
        Val& value = stack[top - 1];
        if (value.kind == Val::Kind::kNull || low.kind == Val::Kind::kNull ||
            high.kind == Val::Kind::kNull) {
          value = Val{};
          break;
        }
        Tri result = tri_and(cmp(OpCode::kCmpGe, value, low),
                             cmp(OpCode::kCmpLe, value, high));
        if (op.negated) result = tri_not(result);
        value = val_of(result);
        break;
      }
      case OpCode::kIn: {
        Val& value = stack[top - 1];
        if (value.kind == Val::Kind::kNull) break;  // stays NULL
        bool found = false;
        for (std::uint32_t i = 0; i < op.b; ++i) {
          const Val& option = list_pool_[op.a + i];
          if (option.kind != Val::Kind::kNull &&
              cmp(OpCode::kCmpEq, value, option) == Tri::kTrue) {
            found = true;
            break;
          }
        }
        const bool hit = op.negated ? !found : found;
        value = val_of(hit ? Tri::kTrue : Tri::kFalse);
        break;
      }
      case OpCode::kLike: {
        Val& value = stack[top - 1];
        if (value.kind == Val::Kind::kNull) break;  // stays NULL
        if (value.kind != Val::Kind::kStr) {
          value = Val{};
          break;
        }
        const bool matched = sql_like(*value.s, patterns_[op.a]);
        const bool hit = op.negated ? !matched : matched;
        value = val_of(hit ? Tri::kTrue : Tri::kFalse);
        break;
      }
      case OpCode::kIsNull: {
        Val& value = stack[top - 1];
        const bool null = value.kind == Val::Kind::kNull;
        const bool hit = op.negated ? !null : null;
        value = val_of(hit ? Tri::kTrue : Tri::kFalse);
        break;
      }
      case OpCode::kAndSkip: {
        Val& v = stack[top - 1];
        if (tri_of(v) == Tri::kFalse) {
          v = val_of(Tri::kFalse);
          pc += op.a;
          continue;
        }
        break;
      }
      case OpCode::kOrSkip: {
        Val& v = stack[top - 1];
        if (tri_of(v) == Tri::kTrue) {
          v = val_of(Tri::kTrue);  // normalizes nonzero ints, as kOr would
          pc += op.a;
          continue;
        }
        break;
      }
      case OpCode::kCmpColConstEq:
      case OpCode::kCmpColConstNeq:
      case OpCode::kCmpColConstLt:
      case OpCode::kCmpColConstLe:
      case OpCode::kCmpColConstGt:
      case OpCode::kCmpColConstGe: {
        const Val lhs = load_column(row, op.a);
        const Val& rhs = consts_[op.b];
        const auto base = static_cast<OpCode>(
            static_cast<std::uint8_t>(OpCode::kCmpEq) +
            (static_cast<std::uint8_t>(op.code) -
             static_cast<std::uint8_t>(OpCode::kCmpColConstEq)));
        stack[top++] =
            (lhs.kind == Val::Kind::kNull || rhs.kind == Val::Kind::kNull)
                ? Val{}
                : val_of(cmp(base, lhs, rhs));
        break;
      }
      case OpCode::kBetweenColConst: {
        const Val value = load_column(row, op.a);
        const Val& low = consts_[op.b];
        const Val& high = consts_[op.b + 1];
        if (value.kind == Val::Kind::kNull || low.kind == Val::Kind::kNull ||
            high.kind == Val::Kind::kNull) {
          stack[top++] = Val{};
          break;
        }
        Tri result = tri_and(cmp(OpCode::kCmpGe, value, low),
                             cmp(OpCode::kCmpLe, value, high));
        if (op.negated) result = tri_not(result);
        stack[top++] = val_of(result);
        break;
      }
    }
    ++pc;
  }
  return tri_of(stack[0]);
}

std::int64_t CompiledPredicate::footprint_bytes() const {
  std::int64_t total = static_cast<std::int64_t>(
      sizeof(CompiledPredicate) + code_.size() * sizeof(Op) +
      (consts_.size() + list_pool_.size()) * sizeof(Val));
  for (const std::string& s : strings_) {
    total += static_cast<std::int64_t>(sizeof(std::string) + s.size());
  }
  for (const std::string& p : patterns_) {
    total += static_cast<std::int64_t>(sizeof(std::string) + p.size());
  }
  return total;
}

}  // namespace gridmon::rgma::sql
