// Tests for src/eval: trial statistics, table printing, TSV output, CLI
// argument parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "eval/args.h"
#include "eval/table.h"
#include "eval/trials.h"
#include "test_paths.h"

namespace kmeansll::eval {
namespace {

TEST(SummarizeTest, KnownStatistics) {
  TrialSummary s = Summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(s.count, 5);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(SummarizeTest, EmptyInput) {
  TrialSummary s = Summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(RunTrialsTest, PassesTrialIndex) {
  TrialSummary s =
      RunTrials(11, [](int64_t t) { return static_cast<double>(t); });
  EXPECT_EQ(s.count, 11);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(RunMultiTrialsTest, SummarizesEachQuantity) {
  auto summaries = RunMultiTrials(5, [](int64_t t) {
    return std::vector<double>{static_cast<double>(t),
                               static_cast<double>(10 * t)};
  });
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_DOUBLE_EQ(summaries[0].median, 2.0);
  EXPECT_DOUBLE_EQ(summaries[1].median, 20.0);
}

TEST(TablePrinterTest, AlignsColumnsAndPrintsRule) {
  TablePrinter table({"method", "cost"});
  table.AddRow({"Random", "1428"});
  table.AddRow({"k-means||", "23"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("k-means||"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(TablePrinterTest, TsvRoundTrip) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  std::string path = ScratchPath("kmeansll_table.tsv");
  ASSERT_TRUE(table.WriteTsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a\tb");
  std::getline(in, line);
  EXPECT_EQ(line, "1\t2");
  std::remove(path.c_str());
}

TEST(TablePrinterTest, TsvFailsOnBadPath) {
  TablePrinter table({"x"});
  EXPECT_TRUE(table.WriteTsv("/nonexistent/dir/t.tsv").IsIOError());
}

TEST(CellFormattingTest, Helpers) {
  EXPECT_EQ(CellInt(1234567), "1,234,567");
  EXPECT_EQ(CellScaled(140000.0, 1e4, 0), "14");
  EXPECT_EQ(CellScaled(230000.0, 1e5, 1), "2.3");
  EXPECT_FALSE(Cell(3.14159, 2).empty());
}

TEST(ArgsTest, ParsesFlagsAndValues) {
  const char* argv[] = {"prog",        "--k=50",      "--ell=2.5",
                        "--verbose",   "--name=test", "positional",
                        "--flag=false"};
  Args args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("k", 0), 50);
  EXPECT_DOUBLE_EQ(args.GetDouble("ell", 0.0), 2.5);
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetString("name", ""), "test");
  EXPECT_FALSE(args.GetBool("flag", true));
  EXPECT_TRUE(args.Has("k"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetInt("missing", -7), -7);
  EXPECT_EQ(args.GetString("missing", "dflt"), "dflt");
}

TEST(ArgsTest, MalformedValuesFallBack) {
  const char* argv[] = {"prog", "--k=notanumber"};
  Args args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("k", 33), 33);
  EXPECT_DOUBLE_EQ(args.GetDouble("k", 1.5), 1.5);
}

}  // namespace
}  // namespace kmeansll::eval
