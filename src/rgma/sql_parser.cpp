#include "rgma/sql_parser.hpp"

#include <algorithm>
#include <type_traits>

namespace gridmon::rgma::sql {
namespace {

using util::sql::Parser;
using util::sql::TokenKind;

void expect_word(Parser& parser, std::string_view word) {
  if (!parser.accept_word(word)) {
    parser.fail("expected " + std::string(word));
  }
}

/// A table or column name: any name but a statement word.
std::string name(Parser& parser, const char* what) {
  static constexpr std::string_view kStatementWords[] = {
      "CREATE", "TABLE",  "INSERT", "INTO",      "VALUES",  "SELECT",
      "FROM",   "WHERE",  "INTEGER", "INT",      "REAL",    "DOUBLE",
      "PRECISION", "CHAR", "VARCHAR", "TIMESTAMP"};
  if (parser.peek().kind != TokenKind::kName ||
      std::ranges::any_of(kStatementWords, [&](std::string_view word) {
        return parser.at_word(word);
      })) {
    parser.fail(std::string("expected ") + what);
  }
  std::string out(parser.peek().text);
  parser.advance();
  return out;
}

ColumnType column_type(Parser& parser, int& width) {
  width = 0;
  if (parser.accept_word("INTEGER") || parser.accept_word("INT")) {
    return ColumnType::kInteger;
  }
  if (parser.accept_word("REAL")) return ColumnType::kReal;
  if (parser.accept_word("DOUBLE")) {
    parser.accept_word("PRECISION");
    return ColumnType::kDouble;
  }
  if (parser.accept_word("TIMESTAMP")) return ColumnType::kTimestamp;
  const bool is_char = parser.accept_word("CHAR");
  if (is_char || parser.accept_word("VARCHAR")) {
    if (parser.accept(TokenKind::kLParen)) {
      if (parser.peek().kind != TokenKind::kInt) parser.fail("expected width");
      width = static_cast<int>(std::get<std::int64_t>(parser.peek().value));
      parser.advance();
      parser.expect(TokenKind::kRParen, "')' after width");
    }
    return is_char ? ColumnType::kChar : ColumnType::kVarchar;
  }
  parser.fail("expected column type");
}

Statement create_table(Parser& parser) {
  expect_word(parser, "TABLE");
  std::string table = name(parser, "table name");
  parser.expect(TokenKind::kLParen, "'(' after table name");
  std::vector<Column> columns;
  do {
    Column col;
    col.name = name(parser, "column name");
    col.type = column_type(parser, col.width);
    columns.push_back(std::move(col));
  } while (parser.accept(TokenKind::kComma));
  parser.expect(TokenKind::kRParen, "')' after column list");
  return CreateTable{TableDef(std::move(table), std::move(columns))};
}

Statement insert(Parser& parser) {
  expect_word(parser, "INTO");
  Insert stmt;
  stmt.table = name(parser, "table name");
  if (parser.accept(TokenKind::kLParen)) {
    do {
      stmt.columns.push_back(name(parser, "column name"));
    } while (parser.accept(TokenKind::kComma));
    parser.expect(TokenKind::kRParen, "')' after column list");
  }
  expect_word(parser, "VALUES");
  parser.expect(TokenKind::kLParen, "'(' after VALUES");
  do {
    stmt.values.push_back(sql_value(parser.literal()));
  } while (parser.accept(TokenKind::kComma));
  parser.expect(TokenKind::kRParen, "')' after value list");
  return stmt;
}

Statement select(Parser& parser, std::string_view source) {
  Select stmt;
  if (!parser.accept(TokenKind::kStar)) {
    do {
      stmt.columns.push_back(name(parser, "column name"));
    } while (parser.accept(TokenKind::kComma));
  }
  expect_word(parser, "FROM");
  stmt.table = name(parser, "table name");
  if (parser.at_word("WHERE")) {
    const util::sql::Token& where = parser.peek();
    stmt.where_text = source.substr(where.position + where.text.size());
    parser.advance();
    stmt.where = parser.condition();
  }
  return stmt;
}

Statement statement(Parser& parser, std::string_view source) {
  if (parser.accept_word("CREATE")) return create_table(parser);
  if (parser.accept_word("INSERT")) return insert(parser);
  if (parser.accept_word("SELECT")) return select(parser, source);
  parser.fail("expected CREATE, INSERT or SELECT");
}

}  // namespace

Statement parse_statement(std::string_view source) {
  Parser parser(source);
  Statement parsed = statement(parser, source);
  parser.expect(TokenKind::kEnd, "end of statement");
  return parsed;
}

ExprPtr parse_predicate(std::string_view source) {
  return util::sql::parse_condition(source);
}

SqlValue sql_value(util::sql::Literal literal) {
  return std::visit(
      [](auto&& v) -> SqlValue {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, util::sql::Null>) {
          return SqlNull{};
        } else if constexpr (std::is_same_v<V, bool>) {
          return std::int64_t{v ? 1 : 0};
        } else {
          return std::move(v);
        }
      },
      std::move(literal));
}

std::string render_insert(const std::string& table,
                          const std::vector<SqlValue>& values) {
  std::string out = "INSERT INTO " + table + " VALUES (";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += sql_to_string(values[i]);
  }
  out += ")";
  return out;
}

}  // namespace gridmon::rgma::sql
