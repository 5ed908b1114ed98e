#include <gtest/gtest.h>

#include "rgma/schema.hpp"
#include "oracles/sql_eval.hpp"
#include "rgma/sql_parser.hpp"
#include "util/like.hpp"
#include "util/rng.hpp"

namespace gridmon::rgma::sql {
namespace {

TableDef people() {
  return TableDef("people", {
                                {"id", ColumnType::kInteger, 0},
                                {"age", ColumnType::kInteger, 0},
                                {"score", ColumnType::kDouble, 0},
                                {"name", ColumnType::kChar, 20},
                            });
}

Tri where(const std::string& predicate, const std::vector<SqlValue>& row) {
  const auto expr = parse_predicate(predicate);
  return evaluate_predicate(*expr, people(), row);
}

const std::vector<SqlValue> kAlice = {std::int64_t{1}, std::int64_t{30}, 91.5,
                                      std::string("alice")};

// --- parsing ---

TEST(SqlParser, CreateTable) {
  const auto stmt = parse_statement(
      "CREATE TABLE generators (id INTEGER, power DOUBLE PRECISION, "
      "name CHAR(20), note VARCHAR(64), seen TIMESTAMP, load REAL)");
  const auto* create = std::get_if<CreateTable>(&stmt);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->table.name(), "generators");
  ASSERT_EQ(create->table.column_count(), 6u);
  EXPECT_EQ(create->table.columns()[0].type, ColumnType::kInteger);
  EXPECT_EQ(create->table.columns()[1].type, ColumnType::kDouble);
  EXPECT_EQ(create->table.columns()[2].type, ColumnType::kChar);
  EXPECT_EQ(create->table.columns()[2].width, 20);
  EXPECT_EQ(create->table.columns()[3].type, ColumnType::kVarchar);
  EXPECT_EQ(create->table.columns()[3].width, 64);
  EXPECT_EQ(create->table.columns()[4].type, ColumnType::kTimestamp);
  EXPECT_EQ(create->table.columns()[5].type, ColumnType::kReal);
}

TEST(SqlParser, InsertPositional) {
  const auto stmt = parse_statement(
      "INSERT INTO people VALUES (1, 30, 91.5, 'alice')");
  const auto* insert = std::get_if<Insert>(&stmt);
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->table, "people");
  EXPECT_TRUE(insert->columns.empty());
  ASSERT_EQ(insert->values.size(), 4u);
  EXPECT_EQ(std::get<std::int64_t>(insert->values[0]), 1);
  EXPECT_DOUBLE_EQ(std::get<double>(insert->values[2]), 91.5);
  EXPECT_EQ(std::get<std::string>(insert->values[3]), "alice");
}

TEST(SqlParser, InsertWithColumnListNegativesAndNull) {
  const auto stmt = parse_statement(
      "INSERT INTO t (a, b, c) VALUES (-5, -2.5, NULL)");
  const auto* insert = std::get_if<Insert>(&stmt);
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->columns, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(std::get<std::int64_t>(insert->values[0]), -5);
  EXPECT_DOUBLE_EQ(std::get<double>(insert->values[1]), -2.5);
  EXPECT_TRUE(is_null(insert->values[2]));
}

TEST(SqlParser, SelectStarAndColumns) {
  auto star = parse_statement("SELECT * FROM people");
  const auto* s1 = std::get_if<Select>(&star);
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->columns.empty());
  EXPECT_EQ(s1->table, "people");
  EXPECT_EQ(s1->where, nullptr);

  auto cols = parse_statement("SELECT id, name FROM people WHERE age > 18");
  const auto* s2 = std::get_if<Select>(&cols);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->columns, (std::vector<std::string>{"id", "name"}));
  ASSERT_NE(s2->where, nullptr);
}

TEST(SqlParser, KeywordsCaseInsensitive) {
  EXPECT_NO_THROW(parse_statement("select * from t where a = 1"));
  EXPECT_NO_THROW(parse_statement("insert into t values (1)"));
  EXPECT_NO_THROW(parse_statement("create table t (a int)"));
}

TEST(SqlParser, StringEscapes) {
  const auto stmt = parse_statement("INSERT INTO t VALUES ('it''s')");
  const auto* insert = std::get_if<Insert>(&stmt);
  EXPECT_EQ(std::get<std::string>(insert->values[0]), "it's");
}

class SqlParseErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(SqlParseErrors, Throws) {
  EXPECT_THROW(parse_statement(GetParam()), SqlParseError);
}

INSTANTIATE_TEST_SUITE_P(
    BadStatements, SqlParseErrors,
    ::testing::Values("DROP TABLE x", "SELECT", "SELECT * FROM",
                      "SELECT * people", "INSERT t VALUES (1)",
                      "INSERT INTO t VALUES", "INSERT INTO t VALUES (",
                      "INSERT INTO t VALUES (1,)", "CREATE TABLE",
                      "CREATE TABLE t ()", "CREATE TABLE t (a)",
                      "CREATE TABLE t (a BOGUS)",
                      "SELECT * FROM t WHERE", "SELECT * FROM t WHERE a >",
                      "SELECT * FROM t WHERE (a = 1",
                      "INSERT INTO t VALUES ('unterminated)",
                      "SELECT * FROM t extra",
                      "INSERT INTO t VALUES (-'x')",
                      "INSERT INTO t VALUES (1e999)",
                      "SELECT * FROM t WHERE a > 1e-400"));

TEST(SqlParser, RenderInsertRoundTrips) {
  const std::vector<SqlValue> row = {std::int64_t{7}, 2.25,
                                     std::string("o'hara"), SqlNull{}};
  const std::string text = render_insert("people", row);
  const auto stmt = parse_statement(text);
  const auto* insert = std::get_if<Insert>(&stmt);
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->table, "people");
  ASSERT_EQ(insert->values.size(), row.size());
  EXPECT_EQ(std::get<std::int64_t>(insert->values[0]), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(insert->values[1]), 2.25);
  EXPECT_EQ(std::get<std::string>(insert->values[2]), "o'hara");
  EXPECT_TRUE(is_null(insert->values[3]));
}

/// Property: render→parse round trips for random rows.
class SqlRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SqlRoundTrip, RandomRows) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<SqlValue> row;
    const int cols = static_cast<int>(rng.uniform_int(1, 12));
    for (int c = 0; c < cols; ++c) {
      switch (rng.uniform_int(0, 3)) {
        case 0:
          row.emplace_back(rng.uniform_int(-1'000'000, 1'000'000));
          break;
        case 1:
          row.emplace_back(rng.uniform_int(0, 1000000) / 64.0);
          break;
        case 2: {
          std::string s;
          const int len = static_cast<int>(rng.uniform_int(0, 12));
          for (int i = 0; i < len; ++i) {
            s += static_cast<char>('a' + rng.uniform_int(0, 25));
          }
          if (rng.chance(0.2)) s += '\'';
          row.emplace_back(std::move(s));
          break;
        }
        default:
          row.emplace_back(SqlNull{});
      }
    }
    const auto stmt = parse_statement(render_insert("t", row));
    const auto* insert = std::get_if<Insert>(&stmt);
    ASSERT_NE(insert, nullptr);
    ASSERT_EQ(insert->values.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(insert->values[i], row[i]) << "column " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRoundTrip, ::testing::Range(1, 9));

// --- predicate evaluation ---

TEST(SqlEval, Comparisons) {
  EXPECT_EQ(where("age = 30", kAlice), Tri::kTrue);
  EXPECT_EQ(where("age <> 30", kAlice), Tri::kFalse);
  EXPECT_EQ(where("age < 40 AND age > 20", kAlice), Tri::kTrue);
  EXPECT_EQ(where("score >= 91.5", kAlice), Tri::kTrue);
  EXPECT_EQ(where("id > age", kAlice), Tri::kFalse);
}

TEST(SqlEval, StringsOrderLexicographically) {
  // Unlike JMS selectors, SQL permits ordered string comparison.
  EXPECT_EQ(where("name < 'bob'", kAlice), Tri::kTrue);
  EXPECT_EQ(where("name > 'zed'", kAlice), Tri::kFalse);
  EXPECT_EQ(where("name = 'alice'", kAlice), Tri::kTrue);
}

TEST(SqlEval, Arithmetic) {
  EXPECT_EQ(where("age * 2 = 60", kAlice), Tri::kTrue);
  EXPECT_EQ(where("score - 1.5 = 90", kAlice), Tri::kTrue);
  EXPECT_EQ(where("age / 7 = 4", kAlice), Tri::kTrue);  // integer division
  EXPECT_EQ(where("age / 0 = 1", kAlice), Tri::kUnknown);
  EXPECT_EQ(where("-age = -30", kAlice), Tri::kTrue);
}

TEST(SqlEval, UnknownColumnIsNull) {
  EXPECT_EQ(where("bogus = 1", kAlice), Tri::kUnknown);
  EXPECT_EQ(where("bogus IS NULL", kAlice), Tri::kTrue);
}

TEST(SqlEval, NullRowValues) {
  const std::vector<SqlValue> row = {std::int64_t{1}, SqlNull{}, 5.0,
                                     std::string("x")};
  EXPECT_EQ(where("age = 30", row), Tri::kUnknown);
  EXPECT_EQ(where("age IS NULL", row), Tri::kTrue);
  EXPECT_EQ(where("age IS NOT NULL", row), Tri::kFalse);
  EXPECT_EQ(where("id = 1 AND age = 30", row), Tri::kUnknown);
  EXPECT_EQ(where("id = 1 OR age = 30", row), Tri::kTrue);
}

TEST(SqlEval, BetweenInLike) {
  EXPECT_EQ(where("age BETWEEN 20 AND 40", kAlice), Tri::kTrue);
  EXPECT_EQ(where("age NOT BETWEEN 20 AND 40", kAlice), Tri::kFalse);
  EXPECT_EQ(where("name IN ('alice', 'bob')", kAlice), Tri::kTrue);
  EXPECT_EQ(where("id IN (1, 2, 3)", kAlice), Tri::kTrue);  // numeric IN
  EXPECT_EQ(where("id NOT IN (2, 3)", kAlice), Tri::kTrue);
  EXPECT_EQ(where("name LIKE 'al%'", kAlice), Tri::kTrue);
  EXPECT_EQ(where("name LIKE '_lice'", kAlice), Tri::kTrue);
  EXPECT_EQ(where("name NOT LIKE 'z%'", kAlice), Tri::kTrue);
}

TEST(SqlEval, PredicateSelectsHelper) {
  EXPECT_TRUE(predicate_selects(nullptr, people(), kAlice));
  EXPECT_TRUE(predicate_selects(parse_predicate("age = 30"), people(), kAlice));
  EXPECT_FALSE(
      predicate_selects(parse_predicate("age = 31"), people(), kAlice));
  // UNKNOWN does not select.
  EXPECT_FALSE(
      predicate_selects(parse_predicate("bogus = 1"), people(), kAlice));
}

TEST(SqlEval, ReadsTheSharedConditionGrammar) {
  // JMS selectors share the grammar: they bring ESCAPE, TRUE and FALSE
  // (1 and 0), repeated signs, '$' and '.' in names and numbers like .5.
  // Statement words are names inside a condition.
  const TableDef table = people();
  auto bound = [&](const char* predicate) {
    return CompiledPredicate::compile(parse_predicate(predicate), table)
        .evaluate(kAlice);
  };
  EXPECT_EQ(bound("name LIKE 'al!%' ESCAPE '!'"), Tri::kFalse);
  EXPECT_EQ(bound("name LIKE 'a!lice' ESCAPE '!'"), Tri::kTrue);
  EXPECT_EQ(bound("name LIKE 'a%' ESCAPE '!'"), Tri::kTrue);
  EXPECT_EQ(bound("TRUE"), Tri::kTrue);
  EXPECT_EQ(bound("FALSE OR id = TRUE"), Tri::kTrue);
  EXPECT_EQ(bound("+-+age = -30"), Tri::kTrue);
  EXPECT_EQ(bound("+name = 'alice'"), Tri::kTrue);  // plus leaves a string
  EXPECT_EQ(bound("score > .5"), Tri::kTrue);
  EXPECT_EQ(bound("people.id IS NULL AND $x IS NULL"), Tri::kTrue);
  EXPECT_EQ(bound("from = 1"), Tri::kUnknown);
  EXPECT_THROW((void)parse_statement("SELECT * FROM from"), SqlParseError);
}

TEST(SqlLike, Wildcards) {
  EXPECT_TRUE(util::like_match("hello", "hello", '\0'));
  EXPECT_TRUE(util::like_match("hello", "h%", '\0'));
  EXPECT_TRUE(util::like_match("hello", "%o", '\0'));
  EXPECT_TRUE(util::like_match("hello", "h_llo", '\0'));
  EXPECT_TRUE(util::like_match("hello", "%", '\0'));
  EXPECT_TRUE(util::like_match("", "%", '\0'));
  EXPECT_FALSE(util::like_match("", "_", '\0'));
  EXPECT_FALSE(util::like_match("hello", "h_", '\0'));
  EXPECT_TRUE(util::like_match("abcabc", "%abc", '\0'));
  EXPECT_TRUE(util::like_match("mississippi", "%ss%ss%", '\0'));
  EXPECT_FALSE(util::like_match("mississippi", "%xx%", '\0'));
}

// --- schema ---

TEST(Schema, ColumnIndexAndValidate) {
  const TableDef table = people();
  EXPECT_EQ(table.column_index("id"), 0u);
  EXPECT_EQ(table.column_index("name"), 3u);
  EXPECT_FALSE(table.column_index("bogus").has_value());

  EXPECT_FALSE(table.validate(kAlice).has_value());  // valid
  // Wrong arity.
  EXPECT_TRUE(table.validate({std::int64_t{1}}).has_value());
  // Type mismatch: string into INTEGER.
  EXPECT_TRUE(table
                  .validate({std::string("x"), std::int64_t{1}, 1.0,
                             std::string("ok")})
                  .has_value());
  // CHAR(20) width enforcement.
  EXPECT_TRUE(table
                  .validate({std::int64_t{1}, std::int64_t{2}, 3.0,
                             std::string(21, 'x')})
                  .has_value());
  // NULL fits anything.
  EXPECT_FALSE(
      table.validate({SqlNull{}, SqlNull{}, SqlNull{}, SqlNull{}}).has_value());
  // Integer accepted into DOUBLE column.
  EXPECT_FALSE(table
                   .validate({std::int64_t{1}, std::int64_t{2},
                              std::int64_t{3}, std::string("ok")})
                   .has_value());
}

TEST(Schema, TypeAccepts) {
  EXPECT_TRUE(type_accepts(ColumnType::kInteger, 0, std::int64_t{5}));
  EXPECT_FALSE(type_accepts(ColumnType::kInteger, 0, 5.0));
  EXPECT_TRUE(type_accepts(ColumnType::kDouble, 0, std::int64_t{5}));
  EXPECT_TRUE(type_accepts(ColumnType::kTimestamp, 0, std::int64_t{5}));
  EXPECT_TRUE(type_accepts(ColumnType::kChar, 5, std::string("abcde")));
  EXPECT_FALSE(type_accepts(ColumnType::kChar, 5, std::string("abcdef")));
  EXPECT_TRUE(type_accepts(ColumnType::kVarchar, 0, std::string("any len")));
}

TEST(SqlValue, Helpers) {
  EXPECT_EQ(sql_to_string(SqlValue{SqlNull{}}), "NULL");
  EXPECT_EQ(sql_to_string(SqlValue{std::int64_t{-4}}), "-4");
  EXPECT_EQ(sql_to_string(SqlValue{std::string("a'b")}), "'a''b'");
  EXPECT_EQ(sql_wire_size(SqlValue{std::int64_t{1}}), 8);
  EXPECT_EQ(sql_wire_size(SqlValue{std::string("ab")}), 4);
  EXPECT_DOUBLE_EQ(sql_as_double(SqlValue{std::int64_t{3}}), 3.0);
  EXPECT_THROW((void)sql_as_double(SqlValue{std::string("x")}),
               std::logic_error);
  EXPECT_NE(to_string(ColumnType::kDouble), to_string(ColumnType::kReal));
}

}  // namespace
}  // namespace gridmon::rgma::sql
