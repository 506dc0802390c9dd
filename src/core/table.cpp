#include "core/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace wheels {

TextTable::TextTable(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::add_row_values(const std::string& label,
                               const std::vector<double>& values,
                               int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt(v, precision));
  add_row(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t i = 0; i < rows_[r].size(); ++i) {
      const auto& cell = rows_[r][i];
      os << cell;
      if (i + 1 < rows_[r].size()) {
        os << std::string(widths[i] - cell.size() + 2, ' ');
      }
    }
    os << '\n';
    if (r == 0) {
      std::size_t total = 0;
      for (std::size_t w : widths) total += w + 2;
      os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    }
  }
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void print_cdf(std::ostream& os, const std::string& label,
               const EmpiricalCdf& cdf, std::size_t points) {
  os << label << " (n=" << cdf.count() << ")\n";
  if (cdf.empty()) {
    os << "  <no samples>\n";
    return;
  }
  for (const auto& pt : cdf.curve(points)) {
    os << "  p=" << fmt(pt.p, 2) << "  x=" << fmt(pt.x, 3) << '\n';
  }
}

}  // namespace wheels
