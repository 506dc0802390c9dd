// Plain-text table and CDF-series printers used by the bench harness to
// emit the rows/series of each paper table and figure.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/stats.h"

namespace wheels {

// A simple column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  void add_row_values(const std::string& label,
                      const std::vector<double>& values, int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::vector<std::string>> rows_;  // rows_[0] is the header
};

// Format a double with fixed precision.
[[nodiscard]] std::string fmt(double v, int precision = 2);

// Print one CDF as "x p" pairs under a series label, plus summary
// quantiles, the way the benches reproduce figure curves.
void print_cdf(std::ostream& os, const std::string& label,
               const EmpiricalCdf& cdf, std::size_t points = 11);

}  // namespace wheels
