#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "scoped_env.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace csmabw::util {
namespace {

// --- CSMABW_REQUIRE ---

TEST(Require, ThrowsWithContext) {
  try {
    CSMABW_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Require, PassesSilently) {
  EXPECT_NO_THROW(CSMABW_REQUIRE(true, "never"));
}

// --- CsvWriter ---

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "csv_test.csv";

  std::string slurp() {
    std::ifstream in(path_);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_);
    w.header({"a", "b"});
    w.row(std::vector<double>{1.5, 2.0});
    w.row(std::vector<std::string>{"x", "y"});
    EXPECT_EQ(w.rows_written(), 2);
  }
  EXPECT_EQ(slurp(), "a,b\n1.5,2\nx,y\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter w(path_);
    w.row(std::vector<std::string>{"has,comma", "has\"quote", "plain"});
  }
  EXPECT_EQ(slurp(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST_F(CsvTest, HeaderAfterRowsIsAnError) {
  CsvWriter w(path_);
  w.row(std::vector<double>{1.0});
  EXPECT_THROW(w.header({"late"}), PreconditionError);
}

TEST(CsvEscape, QuotesNewlines) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvWriter::escape("clean"), "clean");
}

// --- Table ---

TEST(Table, AlignsColumns) {
  Table t({"rate", "value"});
  t.add_row({1.0, 10.5});
  t.add_row({20.25, 3.0});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("rate"), std::string::npos);
  EXPECT_NE(out.find("20.25"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"one"});
  EXPECT_THROW(t.add_row({1.0, 2.0}), PreconditionError);
}

TEST(Table, FormatTrimsTrailingZeros) {
  EXPECT_EQ(Table::format(1.5), "1.5");
  EXPECT_EQ(Table::format(2.0), "2");
  EXPECT_EQ(Table::format(0.12345, 3), "0.123");
  EXPECT_EQ(Table::format(std::nan(""), 3), "nan");
}

// --- Args ---

TEST(Args, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--rate=5.5", "--name=probe"};
  Args args(3, argv);
  EXPECT_DOUBLE_EQ(args.get("rate", 0.0), 5.5);
  EXPECT_EQ(args.get("name", ""), "probe");
}

TEST(Args, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--reps", "250"};
  Args args(3, argv);
  EXPECT_EQ(args.get("reps", 0), 250);
}

TEST(Args, BooleanFlags) {
  const char* argv[] = {"prog", "--verbose", "--eifs=false"};
  Args args(3, argv);
  EXPECT_TRUE(args.get("verbose", false));
  EXPECT_FALSE(args.get("eifs", true));
  EXPECT_TRUE(args.get("absent", true));
}

TEST(Args, BareFlagHasNoValue) {
  // A bare --name is a boolean; read as a string, a number or a list it
  // must fail instead of yielding the word "true" (a --csv=PATH flag
  // given bare would otherwise write a file named `true`).
  const char* argv[] = {"prog", "--csv", "--reps", "--list", "--verbose"};
  Args args(5, argv);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_TRUE(args.get("verbose", false));
  try {
    (void)args.get("csv", "");
    FAIL() << "a bare --csv read as a string";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "option --csv needs a value (--csv=VALUE)");
  }
  EXPECT_THROW((void)args.get("reps", 0), PreconditionError);
  EXPECT_THROW((void)args.get("reps", 0.0), PreconditionError);
  EXPECT_THROW((void)args.get_doubles("list", {}), PreconditionError);
  EXPECT_THROW((void)args.get_ints("list", {}), PreconditionError);
  EXPECT_THROW((void)args.get_strings("list", {}), PreconditionError);
}

TEST(Args, Positional) {
  const char* argv[] = {"prog", "input.txt", "--n=3"};
  Args args(3, argv);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Args, BadNumberThrows) {
  const char* argv[] = {"prog", "--rate=fast"};
  Args args(2, argv);
  EXPECT_THROW((void)args.get("rate", 0.0), PreconditionError);
}

TEST(Args, RejectsPartialAndFractionalNumbers) {
  const char* argv[] = {"prog",          "--reps=12x",    "--frac=2.6",
                        "--threads=2x",  "--rate=inf",    "--list=1,2x",
                        "--ints=3,4.5",  "--good=2.5e3",  "--n=-7"};
  Args args(9, argv);
  EXPECT_THROW((void)args.get("reps", 0), PreconditionError);
  EXPECT_THROW((void)args.get("frac", 0), PreconditionError);
  EXPECT_THROW((void)args.get("threads", 0), PreconditionError);
  EXPECT_THROW((void)args.get("reps", 0.0), PreconditionError);
  EXPECT_THROW((void)args.get("rate", 0.0), PreconditionError);
  EXPECT_THROW((void)args.get_doubles("list", {}), PreconditionError);
  EXPECT_THROW((void)args.get_ints("ints", {}), PreconditionError);
  // Whole numbers still parse: fractions and exponents as doubles,
  // signed integers as ints.
  EXPECT_DOUBLE_EQ(args.get("frac", 0.0), 2.6);
  EXPECT_DOUBLE_EQ(args.get("good", 0.0), 2500.0);
  EXPECT_EQ(args.get("n", 0), -7);
  EXPECT_EQ(args.get_doubles("ints", {}), (std::vector<double>{3.0, 4.5}));
}

TEST(Args, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("n", 42), 42);
  EXPECT_FALSE(args.has("n"));
}

TEST(Args, RequireKnownRejectsMisspelledOptions) {
  const char* argv[] = {"prog", "--threads=4", "--thraeds=4", "in.txt"};
  Args args(4, argv);
  EXPECT_NO_THROW(args.require_known({"threads", "thraeds"}));
  try {
    args.require_known({"threads", "reps"});
    FAIL() << "a misspelled option passed";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--thraeds"), std::string::npos);
  }
}

// --- bench scaling ---

TEST(BenchScale, ScaledRepsAtLeastOne) {
  EXPECT_GE(scaled_reps(1), 1);
  EXPECT_THROW((void)scaled_reps(0), PreconditionError);
}

TEST(BenchScale, ParsesTheWholeValue) {
  {
    const ScopedEnv env("CSMABW_BENCH_SCALE", "2.5");
    EXPECT_DOUBLE_EQ(bench_scale(), 2.5);
    EXPECT_EQ(scaled_reps(10), 25);
  }
  {
    const ScopedEnv env("CSMABW_BENCH_SCALE", "");  // empty means unset
    EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  }
  for (const char* bad : {"abc", "2x", " 2", "+2", "-3", "0", "inf", "nan"}) {
    const ScopedEnv env("CSMABW_BENCH_SCALE", bad);
    try {
      (void)bench_scale();
      ADD_FAILURE() << "accepted CSMABW_BENCH_SCALE=" << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("CSMABW_BENCH_SCALE"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchScale, ScaledRepsRejectsIntOverflow) {
  for (const char* huge : {"1e300", "1e10"}) {
    const ScopedEnv env("CSMABW_BENCH_SCALE", huge);
    EXPECT_THROW((void)scaled_reps(2), PreconditionError) << huge;
  }
  const ScopedEnv env("CSMABW_BENCH_SCALE", "1e-9");
  EXPECT_EQ(scaled_reps(5), 1);  // never below one repetition
}

}  // namespace
}  // namespace csmabw::util
