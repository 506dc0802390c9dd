// Minimal CSV writer for exporting datasets. Quotes cells holding commas,
// quotes or newlines per RFC 4180.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wheels {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);

  // Quote a cell if needed per RFC 4180.
  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  std::ostream& os_;
};

}  // namespace wheels
