// Tests for the reporting utilities (table, CSV, CLI).

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "ftmesh/report/cli.hpp"
#include "ftmesh/report/csv.hpp"
#include "ftmesh/report/table.hpp"

namespace {

using ftmesh::report::Cli;
using ftmesh::report::CsvWriter;
using ftmesh::report::Table;

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  // Rule line present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, SetCellByIndex) {
  Table t({"x", "y"});
  const auto row = t.add_row();
  t.set(row, 0, "foo");
  t.set(row, 1, 3.14159, 2);
  EXPECT_EQ(t.cell(row, 0), "foo");
  EXPECT_EQ(t.cell(row, 1), "3.14");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.cell(0, 2), "");
  std::ostringstream os;
  t.print(os);  // must not throw
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(ftmesh::report::format_double(1.23456, 3), "1.235");
  EXPECT_EQ(ftmesh::report::format_double(2.0, 0), "2");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b"});
  csv.row({"1", "2"});
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, ParseReadsWriterOutputBack) {
  // Round trip through the writer and reader with every special: commas,
  // embedded quotes, and a newline inside a quoted cell.
  const std::vector<std::vector<std::string>> rows = {
      {"algorithm", "note", "value"},
      {"Duato", "plain", "1"},
      {"Nbc", "a,b and \"quotes\"", "2"},
      {"Boura-FT", "line\nbreak, with comma", "3"},
      {"", "empty first cell", ""},
  };
  std::ostringstream os;
  CsvWriter csv(os);
  for (const auto& row : rows) csv.row(row);
  const auto parsed = ftmesh::report::parse_csv(os.str());
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i], rows[i]) << "row " << i;
  }
}

TEST(Csv, ParseHandlesCrlfAndMissingTrailingNewline) {
  const auto a = ftmesh::report::parse_csv("x,y\r\n1,2\r\n");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[1], (std::vector<std::string>{"1", "2"}));
  const auto b = ftmesh::report::parse_csv("x,y\n1,2");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], (std::vector<std::string>{"1", "2"}));
  EXPECT_TRUE(ftmesh::report::parse_csv("").empty());
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  EXPECT_THROW(ftmesh::report::parse_csv("a,\"oops\n"), std::invalid_argument);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--full",       "--rate", "0.02",
                        "--algorithm=Duato",    "pos1"};
  const Cli cli(6, argv);
  EXPECT_TRUE(cli.flag("full"));
  EXPECT_FALSE(cli.flag("missing"));
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.02);
  EXPECT_EQ(cli.get("algorithm", ""), "Duato");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_EQ(cli.get("x", "def"), "def");
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 1.5), 1.5);
}

TEST(Cli, NegativeNumberAsValue) {
  const char* argv[] = {"prog", "--rate", "-1"};
  const Cli cli(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), -1.0);
}

TEST(Cli, NumbersParseAsWholeTokens) {
  const char* argv[] = {"prog", "--steps", "2x", "--rate", "0.01x",
                        "--rates", "0.01,0.02", "--counts", "1,,5"};
  const Cli cli(9, argv);
  EXPECT_THROW((void)cli.get_int("steps", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_double_list("rates"), (std::vector<double>{0.01, 0.02}));
  EXPECT_EQ(cli.get_int_list("counts"), (std::vector<std::int64_t>{1, 5}));
  EXPECT_EQ(cli.get_int_list("absent", "3,4"), (std::vector<std::int64_t>{3, 4}));
  EXPECT_THROW((void)cli.get_double_list("steps"), std::invalid_argument);
  try {
    (void)cli.get_int("steps", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("bad value for --steps: ", 0), 0u) << e.what();
  }
}

TEST(Cli, NumericFlagWithoutValueThrows) {
  // A bare numeric flag used to read as absent, so `--cycles` silently ran
  // at the default; bare string flags (--resume, --progress) stay legal.
  const char* argv[] = {"prog", "--cycles", "--rates", "--resume", "--n="};
  const Cli cli(5, argv);
  try {
    (void)cli.get_int("cycles", 8000);
    FAIL() << "bare --cycles accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "missing value for --cycles");
  }
  EXPECT_THROW((void)cli.get_double("cycles", 1.0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double_list("rates"), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int_list("rates", "1"), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
  EXPECT_TRUE(cli.flag("resume"));
  EXPECT_EQ(cli.get("resume", ""), "");
  EXPECT_EQ(cli.get_int("absent", 7), 7);
}

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--cycles", "30", "--bogus-flag", "1", "pos"};
  const Cli cli(6, argv);
  EXPECT_NO_THROW(cli.reject_unknown({"cycles", "bogus-flag"}));
  try {
    cli.reject_unknown({"cycles"});
    FAIL() << "--bogus-flag accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --bogus-flag");
  }
}

TEST(Cli, FullScaleViaEnv) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  ::setenv("FTMESH_FULL", "1", 1);
  EXPECT_TRUE(cli.full_scale());
  ::setenv("FTMESH_FULL", "0", 1);
  EXPECT_FALSE(cli.full_scale());
  ::unsetenv("FTMESH_FULL");
}

}  // namespace
