// Bound-predicate equivalence: CompiledPredicate must return exactly what
// the by-name AST interpreter returns for every (expr, table, row) — three-
// valued logic, NULL propagation, type mismatches, division by zero,
// unknown and out-of-range columns, LIKE edge cases — plus canonical INSERT
// statements against their rendered round trip. The randomized sweep is
// seeded, so failures reproduce.
#include "rgma/sql_compile.hpp"

#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/sql_eval.hpp"
#include "rgma/sql_parser.hpp"
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
using util::sql::make_expr;
using util::sql::Unary;
using util::sql::UnaryOp;

TableDef test_table() {
  return TableDef("metrics", {
                                 {"id", ColumnType::kInteger, 0},
                                 {"seq", ColumnType::kInteger, 0},
                                 {"value", ColumnType::kDouble, 0},
                                 {"node", ColumnType::kVarchar, 32},
                                 {"label", ColumnType::kVarchar, 32},
                             });
}

constexpr const char* kStrings[] = {"", "abc", "a%b", "grid/feeder7",
                                    "zz",  "abd", "a"};
constexpr const char* kColumns[] = {"id",    "seq",    "value",
                                    "node",  "label",  "missing"};
constexpr const char* kPatterns[] = {"%",   "_",    "",    "%%",   "a%",
                                     "%b",  "a_c",  "__",  "%a%b%", "abc",
                                     "a%b", "_bc",  "ab%c"};
constexpr BinaryOp kBinaryOps[] = {
    BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
    BinaryOp::kEq,  BinaryOp::kNeq, BinaryOp::kLt,  BinaryOp::kLe,
    BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd, BinaryOp::kOr};

/// Small integers keep nested arithmetic far from int64 overflow (UB in
/// both implementations); zeros are frequent so division-by-zero → NULL
/// gets exercised.
SqlValue random_value(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:
      return SqlNull{};
    case 1:
    case 2:
      return static_cast<std::int64_t>(rng() % 19) - 9;
    case 3:
      return (static_cast<double>(rng() % 19) - 9.0) / 2.0;
    default:
      return std::string(kStrings[rng() % std::size(kStrings)]);
  }
}

/// A literal of the tree: a row value's kinds, and a third of the NULLs
/// TRUE or FALSE.
Literal random_literal(std::mt19937_64& rng) {
  return std::visit(
      [&](auto&& v) -> Literal {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, SqlNull>) {
          if (rng() % 3 == 0) return rng() % 2 == 0;
          return util::sql::Null{};
        } else {
          return std::move(v);
        }
      },
      random_value(rng));
}

ExprPtr random_expr(std::mt19937_64& rng, int depth) {
  constexpr UnaryOp kUnaryOps[] = {UnaryOp::kNeg, UnaryOp::kPos,
                                   UnaryOp::kNot};
  const auto pick = depth <= 0 ? rng() % 2 : rng() % 9;
  switch (pick) {
    case 0:
      return make_expr(Constant{random_literal(rng)});
    case 1:
      return make_expr(Identifier{kColumns[rng() % std::size(kColumns)]});
    case 2:
      return make_expr(Unary{kUnaryOps[rng() % std::size(kUnaryOps)],
                             random_expr(rng, depth - 1)});
    case 3:
      return make_expr(Binary{kBinaryOps[rng() % std::size(kBinaryOps)],
                              random_expr(rng, depth - 1),
                              random_expr(rng, depth - 1)});
    case 4:
      return make_expr(Between{rng() % 2 == 0, random_expr(rng, depth - 1),
                               random_expr(rng, depth - 1),
                               random_expr(rng, depth - 1)});
    case 5: {
      std::vector<Literal> options;
      const auto count = rng() % 4;
      for (std::uint64_t i = 0; i < count; ++i) {
        options.push_back(random_literal(rng));
      }
      return make_expr(InList{rng() % 2 == 0, random_expr(rng, depth - 1),
                              std::move(options)});
    }
    case 6:
      // 'a' escapes the character after it in several patterns.
      return make_expr(Like{rng() % 2 == 0, random_expr(rng, depth - 1),
                            kPatterns[rng() % std::size(kPatterns)],
                            rng() % 2 == 0 ? 'a' : '\0'});
    case 7:
      return make_expr(IsNull{rng() % 2 == 0, random_expr(rng, depth - 1)});
    default:
      return make_expr(Constant{random_literal(rng)});
  }
}

/// Rows vary in length (shorter and longer than the schema) so resolved
/// column indices get bounds-checked, and cells ignore column types so
/// type-mismatch comparisons are common.
std::vector<SqlValue> random_row(std::mt19937_64& rng) {
  std::vector<SqlValue> row;
  const auto len = rng() % 7;
  for (std::uint64_t i = 0; i < len; ++i) row.push_back(random_value(rng));
  return row;
}

TEST(SqlCompile, RandomizedEquivalenceWithInterpreter) {
  const TableDef table = test_table();
  std::mt19937_64 rng(20260808ULL);
  int outcomes[3] = {0, 0, 0};
  for (int i = 0; i < 1000; ++i) {
    const ExprPtr expr = random_expr(rng, 4);
    const CompiledPredicate compiled = CompiledPredicate::compile(expr, table);
    for (int r = 0; r < 8; ++r) {
      const std::vector<SqlValue> row = random_row(rng);
      const Tri expected = evaluate_predicate(*expr, table, row);
      ASSERT_EQ(compiled.evaluate(row), expected)
          << "expr #" << i << " row #" << r;
      ASSERT_EQ(compiled.selects(row), predicate_selects(expr, table, row));
      ++outcomes[static_cast<int>(expected)];
    }
  }
  // The generator must exercise all three truth values, or the sweep
  // proves less than it claims.
  EXPECT_GT(outcomes[static_cast<int>(Tri::kFalse)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Tri::kTrue)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Tri::kUnknown)], 0);
}

TEST(SqlCompile, EmptyProgramSelectsEverything) {
  const CompiledPredicate compiled =
      CompiledPredicate::compile(nullptr, test_table());
  EXPECT_TRUE(compiled.empty());
  EXPECT_EQ(compiled.footprint_bytes(), kNoPredicateBytes);
  EXPECT_TRUE(compiled.selects({}));
  EXPECT_TRUE(compiled.selects({SqlValue{std::int64_t{1}}}));
}

TEST(SqlCompile, ParsedPredicatesMatchInterpreter) {
  const TableDef table = test_table();
  const char* kPredicates[] = {
      "id = 3 AND value > 1.5",
      "node LIKE 'grid/%' OR label IN ('abc', 'zz', NULL)",
      "seq BETWEEN 2 AND 8",
      "seq NOT BETWEEN 2 AND 8",
      "value / 0 = 1",                // division by zero → NULL → UNKNOWN
      "missing = 1",                  // unknown column → NULL
      "id + seq * 2 - 1 >= 4",
      "NOT (id = 1 OR id = 2)",
      "label IS NULL",
      "label IS NOT NULL",
      "node = 7",                     // type mismatch → UNKNOWN
      "3 < 4",                        // no column: TRUE
      "NULL = NULL",                  // no column: UNKNOWN
  };
  const std::vector<std::vector<SqlValue>> rows = {
      {std::int64_t{3}, std::int64_t{5}, 2.0, std::string("grid/feeder7"),
       std::string("abc")},
      {std::int64_t{1}, std::int64_t{2}, 1.0, std::string("zz"), SqlNull{}},
      {SqlNull{}, std::int64_t{9}, SqlNull{}, std::string("abc"),
       std::string("zz")},
      {std::int64_t{2}, std::int64_t{8}, -4.5, std::int64_t{7}, 1.5},
      {},
  };
  for (const char* text : kPredicates) {
    const ExprPtr expr = parse_predicate(text);
    const CompiledPredicate compiled = CompiledPredicate::compile(expr, table);
    EXPECT_EQ(compiled.footprint_bytes(), kPredicateBytes) << text;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(compiled.evaluate(rows[r]),
                evaluate_predicate(*expr, table, rows[r]))
          << text << " row #" << r;
    }
  }
}

TEST(SqlCompile, LikeEdgeCasesMatchSqlLike) {
  const TableDef table = test_table();
  for (const char* pattern : kPatterns) {
    const ExprPtr expr =
        make_expr(Like{false, make_expr(Identifier{"node"}), pattern});
    const CompiledPredicate compiled = CompiledPredicate::compile(expr, table);
    for (const char* text : kStrings) {
      std::vector<SqlValue> row = {SqlNull{}, SqlNull{}, SqlNull{},
                                   std::string(text)};
      const Tri expected =
          util::like_match(text, pattern, '\0') ? Tri::kTrue : Tri::kFalse;
      ASSERT_EQ(compiled.evaluate(row), expected)
          << "'" << text << "' LIKE '" << pattern << "'";
    }
    // Non-string and NULL operands are NULL → UNKNOWN, never a match.
    EXPECT_EQ(compiled.evaluate({SqlNull{}, SqlNull{}, SqlNull{},
                                 std::int64_t{3}}),
              Tri::kUnknown);
    EXPECT_EQ(compiled.evaluate({}), Tri::kUnknown);
  }
}

TEST(SqlParserFastPath, CanonicalInsertMatchesGeneralParser) {
  const char* kStatements[] = {
      "INSERT INTO metrics VALUES (1, 2.5, 'a''b', NULL, -7)",
      "insert into metrics values(1)",
      "INSERT INTO metrics VALUES ( -3.25e2 , 'x' )",
      "INSERT INTO m VALUES ('')",
      "INSERT INTO metrics (id, seq) VALUES (1, 2)",  // with a column list
  };
  for (const char* text : kStatements) {
    const Statement statement = parse_statement(text);
    const auto* insert = std::get_if<Insert>(&statement);
    ASSERT_NE(insert, nullptr) << text;
    // Cross-check against the rendered canonical form of the same row.
    const Statement rendered =
        parse_statement(render_insert(insert->table, insert->values));
    const auto* again = std::get_if<Insert>(&rendered);
    ASSERT_NE(again, nullptr) << text;
    EXPECT_EQ(insert->table, again->table) << text;
    EXPECT_EQ(insert->values, again->values) << text;
  }
}

TEST(SqlParserFastPath, MalformedInsertsStillThrow) {
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1,)"),
               SqlParseError);
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1"),
               SqlParseError);
  EXPECT_THROW(parse_statement("INSERT INTO select VALUES (1)"),
               SqlParseError);  // keyword-colliding table name
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1) garbage"),
               SqlParseError);
  EXPECT_THROW(
      parse_statement("INSERT INTO metrics VALUES (9223372036854775808)"),
      SqlParseError);  // int64 out of range
}

TEST(SqlParserFastPath, RenderInsertRoundTripsDoubles) {
  const std::vector<SqlValue> values = {0.1, -2.5, 1e300, 3.0,
                                        std::int64_t{7}};
  const Statement statement =
      parse_statement(render_insert("metrics", values));
  const auto* insert = std::get_if<Insert>(&statement);
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->values, values);
}

}  // namespace
}  // namespace gridmon::rgma::sql
