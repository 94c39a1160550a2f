#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "temp_path.hpp"

namespace thermctl {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = test_temp_path("series.csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv{path_, {"t", "temp", "duty"}};
    csv.row({0.0, 42.5, 10.0});
    csv.row({0.25, 42.75, 11.0});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(read_file(path_), "t,temp,duty\n0,42.5,10\n0.25,42.75,11\n");
}

TEST_F(CsvTest, RejectsWidthMismatch) {
  CsvWriter csv{path_, {"a", "b"}};
  EXPECT_DEATH(csv.row({1.0}), "width");
}

TEST_F(CsvTest, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST_F(CsvTest, EmptySeriesLeavesHeaderOnly) {
  {
    CsvWriter csv{path_, {"t", "temp"}};
    EXPECT_EQ(csv.rows_written(), 0u);
  }
  EXPECT_EQ(read_file(path_), "t,temp\n");
}

TEST_F(CsvTest, QuotesHeaderFieldsThatNeedIt) {
  {
    CsvWriter csv{path_, {"time (s)", "power (W), total", "say \"what\"", "multi\nline"}};
    csv.row({1.0, 2.0, 3.0, 4.0});
  }
  EXPECT_EQ(read_file(path_),
            "time (s),\"power (W), total\",\"say \"\"what\"\"\",\"multi\nline\"\n"
            "1,2,3,4\n");
}

TEST_F(CsvTest, ReopeningAPathTruncatesThePreviousSeries) {
  {
    CsvWriter csv{path_, {"a", "b"}};
    csv.row({1.0, 2.0});
    csv.row({3.0, 4.0});
  }
  {
    CsvWriter csv{path_, {"x"}};
    csv.row({9.0});
    EXPECT_EQ(csv.rows_written(), 1u);  // counts restart with the new file
  }
  EXPECT_EQ(read_file(path_), "x\n9\n");
}

TEST_F(CsvTest, RejectsEmptyColumnSet) {
  EXPECT_DEATH(CsvWriter(path_, {}), "column");
}

TEST(CsvEscape, PassesPlainFieldsThrough) {
  EXPECT_EQ(csv_escape("duty"), "duty");
  EXPECT_EQ(csv_escape("time (s)"), "time (s)");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesAndDoublesSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\r\nbreak"), "\"line\r\nbreak\"");
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(42.5), "42.5");
  EXPECT_EQ(format_number(0.125), "0.125");
}

TEST(FormatNumber, HandlesNonFinite) {
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(FormatNumber, RespectsMaxDecimals) {
  EXPECT_EQ(format_number(1.0 / 3.0, 3), "0.333");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t{{"policy", "temp", "power"}};
  t.add_row({"Pp=25", "47.1", "101.2"});
  t.add_row({"Pp=75", "52.9", "97.4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("policy"), std::string::npos);
  EXPECT_NE(out.find("Pp=25"), std::string::npos);
  // Numeric cells right-aligned under their headers: every line same length.
  std::istringstream lines{out};
  std::string line;
  std::getline(lines, line);
  const std::size_t width = line.size();
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, NumericRowHelper) {
  TextTable t{{"label", "a", "b"}};
  t.add_row("row", {1.234, 5.678}, 1);
  const std::string out = t.render();
  EXPECT_NE(out.find("1.2"), std::string::npos);
  EXPECT_NE(out.find("5.7"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchAborts) {
  TextTable t{{"a", "b"}};
  EXPECT_DEATH(t.add_row({"only-one"}), "width");
}

}  // namespace
}  // namespace thermctl
