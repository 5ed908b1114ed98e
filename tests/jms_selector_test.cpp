#include "jms/selector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gridmon::jms {
namespace {

Message sample_message() {
  Message msg;
  msg.set_property("id", std::int32_t{42});
  msg.set_property("power", 250.5);
  msg.set_property("rate", 1.5f);
  msg.set_property("count", std::int64_t{1000});
  msg.set_property("name", std::string("generator-7"));
  msg.set_property("site", std::string("brunel"));
  msg.set_property("enabled", true);
  msg.set_property("spare", false);
  return msg;
}

Tri eval(const std::string& selector, const Message& msg = sample_message()) {
  return Selector::parse(selector).evaluate(msg);
}

// --- basics ---

TEST(Selector, EmptyMatchesEverything) {
  EXPECT_TRUE(Selector::parse("").matches(sample_message()));
  EXPECT_TRUE(Selector::parse("   ").matches(sample_message()));
  EXPECT_TRUE(Selector().matches(sample_message()));
  EXPECT_TRUE(Selector::parse("").trivial());
}

TEST(Selector, ThePapersSelector) {
  // "id<10000": filters nothing in the workload but is really evaluated.
  const Selector selector = Selector::parse("id<10000");
  EXPECT_TRUE(selector.matches(sample_message()));
  Message big;
  big.set_property("id", std::int32_t{10001});
  EXPECT_FALSE(selector.matches(big));
  Message boundary;
  boundary.set_property("id", std::int32_t{10000});
  EXPECT_FALSE(selector.matches(boundary));
}

TEST(Selector, NumericComparisons) {
  EXPECT_EQ(eval("id = 42"), Tri::kTrue);
  EXPECT_EQ(eval("id <> 42"), Tri::kFalse);
  EXPECT_EQ(eval("id >= 42"), Tri::kTrue);
  EXPECT_EQ(eval("id > 42"), Tri::kFalse);
  EXPECT_EQ(eval("id <= 41"), Tri::kFalse);
  EXPECT_EQ(eval("id < 43"), Tri::kTrue);
}

TEST(Selector, CrossNumericTypePromotion) {
  EXPECT_EQ(eval("power > id"), Tri::kTrue);        // double vs int
  EXPECT_EQ(eval("rate = 1.5"), Tri::kTrue);        // float vs double literal
  EXPECT_EQ(eval("count > 999.5"), Tri::kTrue);     // long vs double
  EXPECT_EQ(eval("id = 42.0"), Tri::kTrue);         // int vs double
}

TEST(Selector, StringEquality) {
  EXPECT_EQ(eval("name = 'generator-7'"), Tri::kTrue);
  EXPECT_EQ(eval("name <> 'generator-8'"), Tri::kTrue);
  EXPECT_EQ(eval("name = 'GENERATOR-7'"), Tri::kFalse);  // case-sensitive
  // Ordering comparisons on strings are invalid → UNKNOWN.
  EXPECT_EQ(eval("name < 'z'"), Tri::kUnknown);
}

TEST(Selector, BooleanPropertiesAndLiterals) {
  EXPECT_EQ(eval("enabled"), Tri::kTrue);
  EXPECT_EQ(eval("spare"), Tri::kFalse);
  EXPECT_EQ(eval("enabled = TRUE"), Tri::kTrue);
  EXPECT_EQ(eval("spare = FALSE"), Tri::kTrue);
  EXPECT_EQ(eval("enabled <> spare"), Tri::kTrue);
  EXPECT_EQ(eval("TRUE"), Tri::kTrue);
  EXPECT_EQ(eval("FALSE OR TRUE"), Tri::kTrue);
  // Ordering on booleans is invalid.
  EXPECT_EQ(eval("enabled > spare"), Tri::kUnknown);
}

TEST(Selector, TypeMismatchIsUnknown) {
  EXPECT_EQ(eval("name = 42"), Tri::kUnknown);
  EXPECT_EQ(eval("id = 'generator-7'"), Tri::kUnknown);
  EXPECT_EQ(eval("enabled = 1"), Tri::kUnknown);
}

// --- arithmetic ---

TEST(Selector, ArithmeticPrecedence) {
  EXPECT_EQ(eval("2 + 3 * 4 = 14"), Tri::kTrue);
  EXPECT_EQ(eval("(2 + 3) * 4 = 20"), Tri::kTrue);
  EXPECT_EQ(eval("10 - 4 - 3 = 3"), Tri::kTrue);  // left associative
  EXPECT_EQ(eval("20 / 2 / 5 = 2"), Tri::kTrue);
}

TEST(Selector, UnaryMinusAndPlus) {
  EXPECT_EQ(eval("-id = -42"), Tri::kTrue);
  EXPECT_EQ(eval("+id = 42"), Tri::kTrue);
  EXPECT_EQ(eval("--id = 42"), Tri::kTrue);
  EXPECT_EQ(eval("-power < 0"), Tri::kTrue);
}

TEST(Selector, IntegerAndFloatDivision) {
  EXPECT_EQ(eval("7 / 2 = 3"), Tri::kTrue);        // integer division
  EXPECT_EQ(eval("7.0 / 2 = 3.5"), Tri::kTrue);    // promoted
  EXPECT_EQ(eval("id / 0 = 1"), Tri::kUnknown);    // int div by zero
}

TEST(Selector, ArithmeticOnPropertiesInComparison) {
  EXPECT_EQ(eval("id * 2 = 84"), Tri::kTrue);
  EXPECT_EQ(eval("power - 0.5 = 250"), Tri::kTrue);
  EXPECT_EQ(eval("id + count = 1042"), Tri::kTrue);
}

TEST(Selector, ArithmeticOnNonNumericIsUnknown) {
  EXPECT_EQ(eval("name + 1 = 2"), Tri::kUnknown);
  EXPECT_EQ(eval("-name = 1"), Tri::kUnknown);
}

// --- three-valued logic ---

TEST(Selector, NullPropagatesToUnknown) {
  EXPECT_EQ(eval("missing = 1"), Tri::kUnknown);
  EXPECT_EQ(eval("missing > 1"), Tri::kUnknown);
  EXPECT_EQ(eval("missing + 1 = 2"), Tri::kUnknown);
  EXPECT_EQ(eval("NOT (missing = 1)"), Tri::kUnknown);
}

TEST(Selector, TriLogicTruthTables) {
  // AND
  EXPECT_EQ(eval("TRUE AND TRUE"), Tri::kTrue);
  EXPECT_EQ(eval("TRUE AND FALSE"), Tri::kFalse);
  EXPECT_EQ(eval("FALSE AND missing = 1"), Tri::kFalse);  // F dominates
  EXPECT_EQ(eval("TRUE AND missing = 1"), Tri::kUnknown);
  // OR
  EXPECT_EQ(eval("FALSE OR FALSE"), Tri::kFalse);
  EXPECT_EQ(eval("TRUE OR missing = 1"), Tri::kTrue);  // T dominates
  EXPECT_EQ(eval("FALSE OR missing = 1"), Tri::kUnknown);
  // NOT
  EXPECT_EQ(eval("NOT TRUE"), Tri::kFalse);
  EXPECT_EQ(eval("NOT FALSE"), Tri::kTrue);
}

TEST(Selector, UnknownDoesNotMatch) {
  EXPECT_FALSE(Selector::parse("missing = 1").matches(sample_message()));
}

TEST(Selector, PrecedenceNotBindsTighterThanAnd) {
  EXPECT_EQ(eval("NOT FALSE AND TRUE"), Tri::kTrue);
  EXPECT_EQ(eval("NOT (FALSE AND TRUE)"), Tri::kTrue);
  EXPECT_EQ(eval("NOT TRUE OR TRUE"), Tri::kTrue);   // (NOT TRUE) OR TRUE
  EXPECT_EQ(eval("FALSE AND FALSE OR TRUE"), Tri::kTrue);  // AND before OR
}

// --- BETWEEN / IN / LIKE / IS NULL ---

TEST(Selector, Between) {
  EXPECT_EQ(eval("id BETWEEN 40 AND 50"), Tri::kTrue);
  EXPECT_EQ(eval("id BETWEEN 42 AND 42"), Tri::kTrue);  // inclusive
  EXPECT_EQ(eval("id BETWEEN 43 AND 50"), Tri::kFalse);
  EXPECT_EQ(eval("id NOT BETWEEN 43 AND 50"), Tri::kTrue);
  EXPECT_EQ(eval("missing BETWEEN 1 AND 2"), Tri::kUnknown);
  EXPECT_EQ(eval("power BETWEEN id AND count"), Tri::kTrue);
}

TEST(Selector, InList) {
  EXPECT_EQ(eval("site IN ('brunel', 'cern')"), Tri::kTrue);
  EXPECT_EQ(eval("site IN ('cern')"), Tri::kFalse);
  EXPECT_EQ(eval("site NOT IN ('cern')"), Tri::kTrue);
  EXPECT_EQ(eval("missing IN ('x')"), Tri::kUnknown);
  EXPECT_EQ(eval("id IN ('42')"), Tri::kUnknown);  // non-string value
}

TEST(Selector, LikeWildcards) {
  EXPECT_EQ(eval("name LIKE 'generator-%'"), Tri::kTrue);
  EXPECT_EQ(eval("name LIKE 'gen%'"), Tri::kTrue);
  EXPECT_EQ(eval("name LIKE '%7'"), Tri::kTrue);
  EXPECT_EQ(eval("name LIKE 'generator-_'"), Tri::kTrue);
  EXPECT_EQ(eval("name LIKE 'generator-__'"), Tri::kFalse);
  EXPECT_EQ(eval("name LIKE 'generator-7'"), Tri::kTrue);  // no wildcards
  EXPECT_EQ(eval("name NOT LIKE 'x%'"), Tri::kTrue);
  EXPECT_EQ(eval("name LIKE '%'"), Tri::kTrue);
  EXPECT_EQ(eval("missing LIKE '%'"), Tri::kUnknown);
}

TEST(Selector, LikeEscape) {
  Message msg;
  msg.set_property("path", std::string("100%_done"));
  EXPECT_EQ(eval("path LIKE '100!%!_done' ESCAPE '!'", msg), Tri::kTrue);
  EXPECT_EQ(eval("path LIKE '100!%x' ESCAPE '!'", msg), Tri::kFalse);
  Message other;
  other.set_property("path", std::string("100x_done"));
  // Escaped % must match a literal %, not anything.
  EXPECT_EQ(eval("path LIKE '100!%!_done' ESCAPE '!'", other), Tri::kFalse);
}

TEST(Selector, IsNull) {
  EXPECT_EQ(eval("missing IS NULL"), Tri::kTrue);
  EXPECT_EQ(eval("id IS NULL"), Tri::kFalse);
  EXPECT_EQ(eval("id IS NOT NULL"), Tri::kTrue);
  EXPECT_EQ(eval("missing IS NOT NULL"), Tri::kFalse);
}

// --- composite expressions ---

TEST(Selector, RealisticCompositeSelectors) {
  EXPECT_EQ(eval("id < 100 AND power > 200.0 AND site = 'brunel'"),
            Tri::kTrue);
  EXPECT_EQ(
      eval("(id BETWEEN 0 AND 50 OR name LIKE 'backup-%') AND enabled"),
      Tri::kTrue);
  EXPECT_EQ(eval("power / id > 5 AND power / id < 7"), Tri::kTrue);
  EXPECT_EQ(eval("JMSPriority = 4"), Tri::kTrue);  // default priority header
}

TEST(Selector, KeywordsAreCaseInsensitive) {
  EXPECT_EQ(eval("id between 40 and 50"), Tri::kTrue);
  EXPECT_EQ(eval("name like 'gen%'"), Tri::kTrue);
  EXPECT_EQ(eval("missing is null"), Tri::kTrue);
  EXPECT_EQ(eval("enabled and true"), Tri::kTrue);
}

TEST(Selector, IdentifiersAreCaseSensitive) {
  EXPECT_EQ(eval("ID = 42"), Tri::kUnknown);  // no such property → NULL
}

TEST(Selector, StringLiteralEscapedQuote) {
  Message msg;
  msg.set_property("q", std::string("it's"));
  EXPECT_EQ(eval("q = 'it''s'", msg), Tri::kTrue);
}

TEST(Selector, ExponentLiterals) {
  EXPECT_EQ(eval("count = 1e3"), Tri::kTrue);
  EXPECT_EQ(eval("power > 2.5e2"), Tri::kTrue);
}

TEST(Selector, ReadsTheSharedConditionGrammar) {
  // R-GMA's SQL shares the grammar: it brings the NULL literal, and ESCAPE
  // is a keyword only after a LIKE pattern. IN lists stay string-only.
  EXPECT_EQ(eval("NULL IS NULL"), Tri::kTrue);
  EXPECT_EQ(eval("id = NULL"), Tri::kUnknown);
  Message msg;
  msg.set_property("escape", std::int32_t{1});
  EXPECT_EQ(eval("escape = 1", msg), Tri::kTrue);
  EXPECT_THROW(Selector::parse("site IN ('brunel', NULL)"), SelectorParseError);
}

// --- parse errors ---

class SelectorParseErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectorParseErrors, Throws) {
  EXPECT_THROW(Selector::parse(GetParam()), SelectorParseError);
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, SelectorParseErrors,
    ::testing::Values("id <", "id = ", "(id = 1", "id = 1)", "AND id = 1",
                      "id = 'unterminated", "id BETWEEN 1", "id BETWEEN 1 OR 2",
                      "id IN ()", "id IN (1, 2)", "id LIKE 42",
                      "id LIKE 'x' ESCAPE 'toolong'", "id IS 42", "# id",
                      "id NOT 5", "1 2", "id = = 2", "NOT", "id IN 'x'",
                      "x > 1e999"));

TEST(Selector, ParseErrorReportsPosition) {
  try {
    Selector::parse("id = @@@");
    FAIL() << "expected SelectorParseError";
  } catch (const SelectorParseError& e) {
    EXPECT_GE(e.position(), 4u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

/// Property sweep: "id<10000" agrees with direct comparison for random ids.
class SelectorIdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SelectorIdSweep, MatchesDirectComparison) {
  const Selector selector = Selector::parse("id<10000");
  gridmon::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const auto id = static_cast<std::int32_t>(rng.uniform_int(0, 20000));
    Message msg;
    msg.set_property("id", id);
    EXPECT_EQ(selector.matches(msg), id < 10000) << "id=" << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorIdSweep, ::testing::Range(1, 9));

/// Property sweep: De Morgan's laws hold under three-valued logic.
class SelectorDeMorgan : public ::testing::TestWithParam<int> {};

TEST_P(SelectorDeMorgan, LawsHold) {
  gridmon::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  for (int i = 0; i < 100; ++i) {
    Message msg;
    // Randomly include or omit properties to exercise UNKNOWN.
    if (rng.chance(0.7)) {
      msg.set_property("a", static_cast<std::int32_t>(rng.uniform_int(0, 9)));
    }
    if (rng.chance(0.7)) {
      msg.set_property("b", static_cast<std::int32_t>(rng.uniform_int(0, 9)));
    }
    const Tri lhs =
        Selector::parse("NOT (a < 5 AND b < 5)").evaluate(msg);
    const Tri rhs =
        Selector::parse("NOT a < 5 OR NOT b < 5").evaluate(msg);
    EXPECT_EQ(lhs, rhs);
    const Tri lhs2 = Selector::parse("NOT (a < 5 OR b < 5)").evaluate(msg);
    const Tri rhs2 =
        Selector::parse("NOT a < 5 AND NOT b < 5").evaluate(msg);
    EXPECT_EQ(lhs2, rhs2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorDeMorgan, ::testing::Range(1, 9));

TEST(TriLogic, Helpers) {
  EXPECT_EQ(tri_not(Tri::kUnknown), Tri::kUnknown);
  EXPECT_EQ(tri_and(Tri::kUnknown, Tri::kFalse), Tri::kFalse);
  EXPECT_EQ(tri_and(Tri::kUnknown, Tri::kTrue), Tri::kUnknown);
  EXPECT_EQ(tri_or(Tri::kUnknown, Tri::kTrue), Tri::kTrue);
  EXPECT_EQ(tri_or(Tri::kUnknown, Tri::kFalse), Tri::kUnknown);
}

}  // namespace
}  // namespace gridmon::jms
