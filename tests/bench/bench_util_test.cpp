#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace scan::bench {
namespace {

/// Owns an argv for Flags: argv[0] is the program name, then `args`.
class Argv {
 public:
  explicit Argv(std::initializer_list<std::string> args) : storage_(args) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

Flags Parse(Argv& args, std::initializer_list<std::string_view> known) {
  return Flags(args.argc(), args.argv(), known);
}

TEST(FlagsTest, ParsesDeclaredValues) {
  Argv args{"--duration=300.5", "--reps=4", "--label=fig4"};
  const Flags flags = Parse(args, {"duration", "reps", "label"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("duration", 0.0), 300.5);
  EXPECT_EQ(flags.GetInt("reps", 0), 4);
  EXPECT_EQ(flags.GetString("label", ""), "fig4");
}

TEST(FlagsTest, BareFlagIsPresentWithEmptyValue) {
  Argv args{"--verify"};
  const Flags flags = Parse(args, {"verify", "full"});
  EXPECT_TRUE(flags.Has("verify"));
  EXPECT_FALSE(flags.Has("full"));
  EXPECT_EQ(flags.GetString("verify", "unset"), "");
}

TEST(FlagsTest, AbsentFlagsReturnTheFallback) {
  Argv args{};
  const Flags flags = Parse(args, {"duration", "reps", "label"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("duration", 2000.0), 2000.0);
  EXPECT_EQ(flags.GetInt("reps", 3), 3);
  EXPECT_EQ(flags.GetString("label", "none"), "none");
}

TEST(FlagsTest, SharedOutputFlagsNeedNoDeclaration) {
  Argv args{"--csv=a.csv",     "--json=a.json",   "--trace=t.jsonl",
            "--metrics=m.prom", "--audit=a.jsonl", "--log-level=off",
            "--trace-capacity=64"};
  const Flags flags = Parse(args, {});
  EXPECT_EQ(flags.GetString("csv", ""), "a.csv");
  EXPECT_EQ(flags.GetString("json", ""), "a.json");
  EXPECT_EQ(flags.GetString("trace", ""), "t.jsonl");
  EXPECT_EQ(flags.GetString("metrics", ""), "m.prom");
  EXPECT_EQ(flags.GetString("audit", ""), "a.jsonl");
  EXPECT_EQ(flags.GetString("log-level", ""), "off");
  EXPECT_EQ(flags.GetInt("trace-capacity", 0), 64);
}

TEST(FlagsTest, IntAcceptsTheIntRangeBounds) {
  Argv args{"--hi=2147483647", "--lo=-2147483648", "--whole=7.0"};
  const Flags flags = Parse(args, {"hi", "lo", "whole"});
  EXPECT_EQ(flags.GetInt("hi", 0), INT_MAX);
  EXPECT_EQ(flags.GetInt("lo", 0), INT_MIN);
  EXPECT_EQ(flags.GetInt("whole", 0), 7);
}

TEST(FlagsDeathTest, MisspelledFlagExitsWithTheKnownList) {
  EXPECT_EXIT(
      {
        Argv args{"--verfy"};
        (void)Parse(args, {"verify", "reps"});
      },
      ::testing::ExitedWithCode(2),
      "unknown flag: --verfy\nknown flags: --verify --reps --csv --json");
}

TEST(FlagsDeathTest, PositionalArgumentExits) {
  EXPECT_EXIT(
      {
        Argv args{"300"};
        (void)Parse(args, {"duration"});
      },
      ::testing::ExitedWithCode(2), "unknown argument: 300");
}

TEST(FlagsDeathTest, NonNumericDoubleExits) {
  EXPECT_EXIT(
      {
        Argv args{"--duration=abc"};
        (void)Parse(args, {"duration"}).GetDouble("duration", 1.0);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --duration: expected a number, got 'abc'");
}

TEST(FlagsDeathTest, EmptyNumericValueExits) {
  EXPECT_EXIT(
      {
        Argv args{"--duration"};
        (void)Parse(args, {"duration"}).GetDouble("duration", 1.0);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --duration: expected a number, got ''");
}

TEST(FlagsDeathTest, FractionalIntExits) {
  EXPECT_EXIT(
      {
        Argv args{"--reps=2.5"};
        (void)Parse(args, {"reps"}).GetInt("reps", 1);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --reps: expected an integer, got '2.5'");
}

TEST(FlagsDeathTest, IntAboveRangeExits) {
  EXPECT_EXIT(
      {
        Argv args{"--reps=1e10"};
        (void)Parse(args, {"reps"}).GetInt("reps", 1);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --reps: expected an integer, got '1e10'");
}

TEST(FlagsDeathTest, IntBelowRangeExits) {
  EXPECT_EXIT(
      {
        Argv args{"--seed=-2147483649"};
        (void)Parse(args, {"seed"}).GetInt("seed", 1);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --seed: expected an integer, got '-2147483649'");
}

TEST(FlagsDeathTest, NonFiniteIntExits) {
  EXPECT_EXIT(
      {
        Argv args{"--reps=inf"};
        (void)Parse(args, {"reps"}).GetInt("reps", 1);
      },
      ::testing::ExitedWithCode(2), "expected an integer, got 'inf'");
  EXPECT_EXIT(
      {
        Argv args{"--reps=nan"};
        (void)Parse(args, {"reps"}).GetInt("reps", 1);
      },
      ::testing::ExitedWithCode(2), "expected an integer, got 'nan'");
}

TEST(FlagsTest, CountAcceptsDigitsAndExactNumbers) {
  Argv args{"--events=18446744073709551615", "--ops=1e6", "--workers=0"};
  const Flags flags = Parse(args, {"events", "ops", "workers", "pending"});
  EXPECT_EQ(flags.GetCount("events", 1), 18446744073709551615ull);
  EXPECT_EQ(flags.GetCount("ops", 1), 1'000'000u);
  EXPECT_EQ(flags.GetCount("workers", 1), 0u);
  EXPECT_EQ(flags.GetCount("pending", 7), 7u);
}

TEST(FlagsDeathTest, NegativeCountExits) {
  EXPECT_EXIT(
      {
        Argv args{"--profiles=-1"};
        (void)Parse(args, {"profiles"}).GetCount("profiles", 1);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --profiles: expected a non-negative integer, got '-1'");
}

TEST(FlagsDeathTest, FractionalCountExits) {
  EXPECT_EXIT(
      {
        Argv args{"--events=2.5"};
        (void)Parse(args, {"events"}).GetCount("events", 1);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --events: expected a non-negative integer, got '2.5'");
}

TEST(FlagsDeathTest, CountAboveRangeExits) {
  EXPECT_EXIT(
      {
        Argv args{"--pending=18446744073709551616"};
        (void)Parse(args, {"pending"}).GetCount("pending", 1);
      },
      ::testing::ExitedWithCode(2), "expected a non-negative integer");
  EXPECT_EXIT(
      {
        Argv args{"--ops=1e30"};
        (void)Parse(args, {"ops"}).GetCount("ops", 1);
      },
      ::testing::ExitedWithCode(2), "expected a non-negative integer");
}

TEST(FlagsDeathTest, NonFiniteCountExits) {
  EXPECT_EXIT(
      {
        Argv args{"--workers=inf"};
        (void)Parse(args, {"workers"}).GetCount("workers", 1);
      },
      ::testing::ExitedWithCode(2),
      "expected a non-negative integer, got 'inf'");
  EXPECT_EXIT(
      {
        Argv args{"--trace-capacity=nan"};
        (void)Parse(args, {}).GetCount("trace-capacity", 1);
      },
      ::testing::ExitedWithCode(2),
      "expected a non-negative integer, got 'nan'");
}

TEST(FlagsDeathTest, NonNumericCountExits) {
  EXPECT_EXIT(
      {
        Argv args{"--profiles=lots"};
        (void)Parse(args, {"profiles"}).GetCount("profiles", 1);
      },
      ::testing::ExitedWithCode(2),
      "bad value for --profiles: expected a number, got 'lots'");
}

TEST(JsonTest, QuoteEscapesTableCellSpecials) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonTest, FiniteNumbersAreUnquoted) {
  EXPECT_EQ(JsonCell("1.5"), "1.5");
  EXPECT_EQ(JsonCell("-3"), "-3");
  EXPECT_EQ(JsonCell("predictive"), "\"predictive\"");
  EXPECT_EQ(JsonCell("inf"), "\"inf\"");
  EXPECT_EQ(JsonCell("nan"), "\"nan\"");
  EXPECT_EQ(JsonCell("12.5 +- 1.0"), "\"12.5 +- 1.0\"");
}

TEST(JsonTest, SaveJsonWritesOneObjectPerRow) {
  CsvTable table({"scaling", "profit"});
  table.AddRow({"always", "12.5"});
  table.AddRow({"never", "-3"});
  const std::string path = ::testing::TempDir() + "bench_util_test.json";
  ASSERT_TRUE(SaveJson(table, path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(),
            "[\n"
            "  {\"scaling\": \"always\", \"profit\": 12.5},\n"
            "  {\"scaling\": \"never\", \"profit\": -3}\n"
            "]\n");
}

TEST(JsonTest, SaveJsonReportsAnUnwritablePath) {
  CsvTable table({"x"});
  EXPECT_FALSE(SaveJson(table, ::testing::TempDir() + "no/such/dir/out.json"));
}

TEST(MeanStdTest, FormatsOneDecimal) {
  EXPECT_EQ(MeanStd(12.34, 0.06), "12.3 +- 0.1");
  EXPECT_EQ(MeanStd(-1.0, 0.0), "-1.0 +- 0.0");
}

}  // namespace
}  // namespace scan::bench
