#include "util/table.hpp"

#include <gtest/gtest.h>

namespace gridmon::util {
namespace {

TEST(TextTable, RendersHeadersAndRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  // Must not crash; missing cells render empty.
  const std::string out = table.render();
  EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TextTable, ColumnsAlign) {
  TextTable table({"x", "longheader"});
  table.add_row({"longvalue", "1"});
  const std::string out = table.render();
  // Every rendered line has the same width.
  std::size_t width = std::string::npos;
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    const std::size_t line_width = end - start;
    if (width == std::string::npos) {
      width = line_width;
    } else {
      EXPECT_EQ(line_width, width);
    }
    start = end + 1;
  }
}

TEST(TextTable, Format) {
  EXPECT_EQ(TextTable::format(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::format(3.14159, 0), "3");
  EXPECT_EQ(TextTable::format(-1.5, 1), "-1.5");
}

TEST(TextTable, CsvEscapesSeparatorsAndQuotes) {
  TextTable table({"name", "note"});
  table.add_row({"a,b", "say \"hi\""});
  const std::string csv = table.render_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, CsvPlainCellsUnquoted) {
  TextTable table({"h"});
  table.add_row({"plain"});
  EXPECT_EQ(table.render_csv(), "h\nplain\n");
}

}  // namespace
}  // namespace gridmon::util
