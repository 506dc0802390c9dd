#include "core/csv.h"

#include <ostream>

namespace wheels {

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os_ << ',';
    os_ << escape(cells[i]);
  }
  os_ << '\n';
}

}  // namespace wheels
