// ASCII table / CSV emitters used by gridmon_cli to print the paper's
// tables and figure series.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gridmon::util {

/// Column-aligned text table. Cells are strings; format() renders numbers
/// with a fixed precision so output is stable across runs.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  TextTable& add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::string render() const;
  [[nodiscard]] std::string render_csv() const;

  static std::string format(double value, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gridmon::util
