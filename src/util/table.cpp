#include "util/table.hpp"

#include <algorithm>
#include <sstream>

namespace gridmon::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

TextTable& TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string TextTable::format(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << "| " << cell << std::string(widths[c] - cell.size() + 1, ' ');
    }
    out << "|\n";
  };
  auto emit_rule = [&] {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out << '+' << std::string(widths[c] + 2, '-');
    }
    out << "+\n";
  };

  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return out.str();
}

std::string TextTable::render_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      // Quote cells containing separators.
      if (row[c].find_first_of(",\"\n") != std::string::npos) {
        out << '"';
        for (char ch : row[c]) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << row[c];
      }
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace gridmon::util
