#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/stats.h"
#include "core/table.h"

namespace wheels {
namespace {

// Parse a full CSV document into rows of cells: quoted cells with embedded
// commas, quotes ("" escape) and newlines, CRLF tolerated. The reader the
// export round trip checks CsvWriter against.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;

  auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
    cell_started = false;
  };
  auto end_row = [&] {
    end_cell();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        cell_started = true;
        break;
      case ',':
        end_cell();
        cell_started = true;  // next cell exists even if empty
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        break;
      default:
        cell += c;
        cell_started = true;
        break;
    }
  }
  if (cell_started || !cell.empty() || !row.empty()) end_row();
  return rows;
}

TEST(Csv, EscapePlainCellUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeSpecials) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriteParseRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b,c", "d\"e"});
  w.write_row({"1", "", "3"});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b,c", "d\"e"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "", "3"}));
}

TEST(Csv, ParseCrlfAndQuotedNewline) {
  const auto rows = parse_csv("x,y\r\n\"multi\nline\",z\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "multi\nline");
  EXPECT_EQ(rows[1][1], "z");
}

TEST(Csv, ParseEmpty) { EXPECT_TRUE(parse_csv("").empty()); }

TEST(Table, AlignsAndPrintsHeaderRule) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row_values("beta", {2.5, 3.25}, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Table, PrintCdf) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  std::ostringstream os;
  print_cdf(os, "test-series", cdf, 3);
  EXPECT_NE(os.str().find("test-series (n=4)"), std::string::npos);
  std::ostringstream os3;
  print_cdf(os3, "empty", EmpiricalCdf{});
  EXPECT_NE(os3.str().find("<no samples>"), std::string::npos);
}

}  // namespace
}  // namespace wheels
