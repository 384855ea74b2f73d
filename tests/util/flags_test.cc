#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace contender {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = MakeFlags({"--seed=7", "--name=alpha", "--rate=0.5"});
  EXPECT_EQ(f.GetInt("seed", 0), 7);
  EXPECT_EQ(f.GetString("name", ""), "alpha");
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(f.Seed(), 7u);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = MakeFlags({"--seed", "9", "--name", "beta"});
  EXPECT_EQ(f.GetInt("seed", 0), 9);
  EXPECT_EQ(f.GetString("name", ""), "beta");
}

TEST(FlagsTest, BooleanFlags) {
  Flags f = MakeFlags({"--verbose", "--no-color"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("color", true));
  EXPECT_TRUE(f.GetBool("absent", true));
  EXPECT_FALSE(f.GetBool("absent", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = MakeFlags({});
  EXPECT_EQ(f.GetInt("seed", 42), 42);
  EXPECT_EQ(f.Seed(), 42u);
  EXPECT_EQ(f.GetString("x", "dflt"), "dflt");
  EXPECT_FALSE(f.Has("x"));
}

TEST(FlagsTest, ExplicitFalseString) {
  Flags f = MakeFlags({"--opt=false", "--zero=0"});
  EXPECT_FALSE(f.GetBool("opt", true));
  EXPECT_FALSE(f.GetBool("zero", true));
}

// The value forms the bench and example command lines use must parse.
TEST(FlagsTest, WellFormedValuesParse) {
  Flags f = MakeFlags({"--seconds=30.0", "--skew=1", "--threads=-1",
                       "--check=false", "--verify=1", "--list=true"});
  EXPECT_DOUBLE_EQ(f.GetDouble("seconds", 0.0), 30.0);
  EXPECT_DOUBLE_EQ(f.GetDouble("skew", 0.0), 1.0);
  EXPECT_EQ(f.GetInt("threads", 0), -1);
  EXPECT_FALSE(f.GetBool("check", true));
  EXPECT_TRUE(f.GetBool("verify", false));
  EXPECT_TRUE(f.GetBool("list", false));
}

// Each malformed value dies naming the flag; a strtoll/strtod reading
// would have taken the parsable prefix (or 0) without a word.
TEST(FlagsDeathTest, IntRejectsNonNumber) {
  Flags f = MakeFlags({"--threads=abc"});
  EXPECT_DEATH(f.GetInt("threads", 1), "--threads=abc is not an integer");
}

TEST(FlagsDeathTest, IntRejectsExponent) {
  Flags f = MakeFlags({"--requests=1e4"});
  EXPECT_DEATH(f.GetInt("requests", 1), "--requests=1e4 is not an integer");
}

TEST(FlagsDeathTest, IntRejectsTrailingGarbage) {
  Flags f = MakeFlags({"--seed=42x"});
  EXPECT_DEATH(f.Seed(), "--seed=42x is not an integer");
}

TEST(FlagsDeathTest, IntRejectsEmptyAndOutOfRange) {
  Flags f = MakeFlags({"--mpl=", "--requests=99999999999999999999"});
  EXPECT_DEATH(f.GetInt("mpl", 3), "--mpl= is not an integer");
  EXPECT_DEATH(f.GetInt("requests", 1),
               "--requests=99999999999999999999 is not an integer");
}

TEST(FlagsDeathTest, DoubleRejectsTrailingGarbageAndNonFinite) {
  Flags f = MakeFlags({"--skew=0.5x", "--seconds=inf", "--drift=1e999"});
  EXPECT_DEATH(f.GetDouble("skew", 1.0), "--skew=0.5x is not a finite");
  EXPECT_DEATH(f.GetDouble("seconds", 1.0), "--seconds=inf is not a finite");
  EXPECT_DEATH(f.GetDouble("drift", 1.0), "--drift=1e999 is not a finite");
}

TEST(FlagsDeathTest, BoolRejectsMisspelling) {
  Flags f = MakeFlags({"--check=flase", "--verify=yes"});
  EXPECT_DEATH(f.GetBool("check", true), "--check=flase is not true/false");
  EXPECT_DEATH(f.GetBool("verify", false), "--verify=yes is not true/false");
}

}  // namespace
}  // namespace contender
