#include "common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dssj {
namespace {

Flags MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  auto parsed = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TEST(FlagsTest, KeyEqualsValue) {
  const Flags f = MustParse({"--threshold=800", "--strategy=length"});
  EXPECT_EQ(f.GetInt("threshold", 0), 800);
  EXPECT_EQ(f.GetString("strategy", ""), "length");
  EXPECT_EQ(f.GetInt("absent", 42), 42);
}

TEST(FlagsTest, KeySpaceValue) {
  const Flags f = MustParse({"--joiners", "8", "--rate", "2.5"});
  EXPECT_EQ(f.GetInt("joiners", 0), 8);
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 2.5);
}

TEST(FlagsTest, BareFlagIsBooleanTrue) {
  const Flags f = MustParse({"--verbose", "--collect=false"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("collect", true));
  EXPECT_TRUE(f.GetBool("absent", true));
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = MustParse({"input.txt", "--k=3", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(FlagsTest, UnusedKeysDetectTypos) {
  const Flags f = MustParse({"--threshold=800", "--thresold=900"});
  EXPECT_EQ(f.GetInt("threshold", 0), 800);
  const auto unused = f.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "thresold");
}

TEST(FlagsTest, HasMarksUsed) {
  const Flags f = MustParse({"--opt=1"});
  EXPECT_TRUE(f.Has("opt"));
  EXPECT_TRUE(f.UnusedKeys().empty());
}

TEST(FlagsTest, MalformedInput) {
  const char* argv[] = {"prog", "--=x"};
  EXPECT_FALSE(Flags::Parse(2, argv).ok());
}

// A malformed value is a usage error, never an abort: the getter falls
// back to its default and records a message naming the flag, in query
// order, for the binary to print before exiting with status 2.
TEST(FlagsTest, MalformedValuesAreReportedNotFatal) {
  const Flags f = MustParse({"--n=abc", "--big=99999999999999999999", "--rate=1.5x",
                             "--ratio=nan", "--on=maybe", "--empty="});
  EXPECT_EQ(f.GetInt("n", 7), 7);
  EXPECT_EQ(f.GetInt("big", 8), 8);
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.5), 0.5);
  EXPECT_DOUBLE_EQ(f.GetDouble("ratio", 0.25), 0.25);
  EXPECT_TRUE(f.GetBool("on", true));
  EXPECT_EQ(f.GetInt("empty", 9), 9);
  const std::vector<std::string> expected = {
      "flag --n expects an integer, got 'abc'",
      "flag --big expects an integer, got '99999999999999999999'",
      "flag --rate expects a number, got '1.5x'",
      "flag --ratio expects a number, got 'nan'",
      "flag --on expects a boolean, got 'maybe'",
      "flag --empty expects an integer, got ''",
  };
  EXPECT_EQ(f.ValueErrors(), expected);
  EXPECT_TRUE(f.UnusedKeys().empty());
}

TEST(FlagsTest, WellFormedValuesReportNothing) {
  const Flags f = MustParse({"--n=-12", "--rate=2e3", "--on=no", "--s=abc"});
  EXPECT_EQ(f.GetInt("n", 0), -12);
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 2000.0);
  EXPECT_FALSE(f.GetBool("on", true));
  EXPECT_EQ(f.GetString("s", ""), "abc");
  EXPECT_EQ(f.GetInt("absent", 3), 3);
  EXPECT_TRUE(f.ValueErrors().empty());
}

}  // namespace
}  // namespace dssj
