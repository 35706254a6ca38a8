#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/options.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace krr {
namespace {

TEST(Table, RejectsEmptyHeaderAndBadRows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add("x", 1);
  t.add("longer", 2.5);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutputIsCommaSeparated) {
  Table t({"a", "b"});
  t.add(1, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, AcceptsMixedCellTypes) {
  Table t({"s", "i", "u", "d"});
  t.add(std::string("str"), -7, 42u, 0.125);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "s,i,u,d\nstr,-7,42,0.125\n");
}

TEST(FormatDouble, UsesCompactPrecision) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.000123456789, 3), "0.000123");
}

TEST(Options, ParsesNamedAndPositional) {
  const char* argv[] = {"prog", "--alpha=0.5", "--flag", "positional",
                        "--n=100"};
  Options opts(5, const_cast<char**>(argv));
  EXPECT_TRUE(opts.has("flag"));
  EXPECT_FALSE(opts.has("missing"));
  EXPECT_DOUBLE_EQ(opts.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(opts.get_int("n", 0), 100);
  EXPECT_EQ(opts.get_string("nope", "def"), "def");
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "positional");
}

TEST(Options, EmptyValueFallsBackToDefault) {
  const char* argv[] = {"prog", "--n="};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("n", 7), 7);
}

TEST(BenchScale, ParsesInFullOrThrowsNamingTheVariable) {
  EXPECT_EQ(parse_bench_scale(nullptr), 1.0);
  EXPECT_EQ(parse_bench_scale(""), 1.0);
  EXPECT_EQ(parse_bench_scale("0.3"), 0.3);
  EXPECT_EQ(parse_bench_scale("10"), 10.0);
  for (const char* bad : {"abc", "-1", "0", "0,3", "0.3x", " 0.3", "inf", "nan"}) {
    try {
      parse_bench_scale(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("KRR_BENCH_SCALE"), std::string::npos);
    }
  }
}

TEST(Scaled, HonorsMinimum) {
  // bench_scale() defaults to 1 in the test environment.
  EXPECT_EQ(scaled(100), 100u);
  EXPECT_EQ(scaled(0, 5), 5u);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double first = watch.seconds();
  EXPECT_GE(first, 0.015);
  EXPECT_LT(first, 5.0);
  watch.reset();
  EXPECT_LT(watch.seconds(), first);
  EXPECT_GE(watch.millis(), 0.0);
}

}  // namespace
}  // namespace krr
