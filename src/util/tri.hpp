// SQL three-valued logic, shared by the two SQL-92 subsets in the study:
// JMS message selectors and R-GMA's WHERE predicates. NULL operands make a
// comparison UNKNOWN, and only a TRUE condition selects.
#pragma once

namespace gridmon::util {

enum class Tri { kFalse, kTrue, kUnknown };

[[nodiscard]] constexpr Tri tri_not(Tri t) {
  if (t == Tri::kTrue) return Tri::kFalse;
  if (t == Tri::kFalse) return Tri::kTrue;
  return Tri::kUnknown;
}
[[nodiscard]] constexpr Tri tri_and(Tri a, Tri b) {
  if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
  if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
  return Tri::kTrue;
}
[[nodiscard]] constexpr Tri tri_or(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
  return Tri::kFalse;
}

}  // namespace gridmon::util
