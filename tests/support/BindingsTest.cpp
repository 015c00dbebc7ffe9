//===- tests/support/BindingsTest.cpp - Binding-list grammar --------------===//

#include "support/Bindings.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

std::optional<std::map<std::string, int64_t>> parse(const std::string &S) {
  std::map<std::string, int64_t> Out;
  if (!parseBindings(S, Out))
    return std::nullopt;
  return Out;
}

TEST(Bindings, ParsesNameValueLists) {
  auto B = parse("n=32,b=4,m=-7");
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(*B, (std::map<std::string, int64_t>{
                    {"n", 32}, {"b", 4}, {"m", -7}}));
  EXPECT_EQ(parse("n=1,n=2")->at("n"), 2); // later items win
  EXPECT_TRUE(parse("")->empty());
}

TEST(Bindings, Int64RangeIsExact) {
  EXPECT_EQ(parse("n=9223372036854775807")->at("n"), INT64_MAX);
  EXPECT_EQ(parse("n=-9223372036854775808")->at("n"), INT64_MIN);
  EXPECT_FALSE(parse("n=9223372036854775808"));
  EXPECT_FALSE(parse("n=-9223372036854775809"));
  EXPECT_FALSE(parse("n=99999999999999999999999"));
}

TEST(Bindings, RejectsGarbage) {
  EXPECT_FALSE(parse("n=abc"));
  EXPECT_FALSE(parse("n=12x"));
  EXPECT_FALSE(parse("n"));
  EXPECT_FALSE(parse("=5"));
  EXPECT_FALSE(parse("n="));
  EXPECT_FALSE(parse("n=-"));
  EXPECT_FALSE(parse("n=--5"));
}

TEST(Bindings, RejectsEmptyItems) {
  EXPECT_FALSE(parse(",n=1"));
  EXPECT_FALSE(parse("n=1,,m=2"));
}

TEST(Bindings, RejectsPlusSignsAndSpaces) {
  EXPECT_FALSE(parse("n=+5"));
  EXPECT_FALSE(parse("n= 5"));
  EXPECT_FALSE(parse("n=5 "));
  EXPECT_FALSE(parse("n=\t5"));
}

/// parseU64 result, or nullopt when rejected; a rejection must leave
/// the output untouched.
std::optional<uint64_t> u64(const std::string &S) {
  uint64_t V = 42;
  if (parseU64(S, V))
    return V;
  EXPECT_EQ(V, 42u) << "rejected '" << S << "' but wrote the output";
  return std::nullopt;
}

TEST(ParseU64, AcceptsDigitsOnly) {
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("17"), 17u);
  EXPECT_EQ(u64("007"), 7u);
}

TEST(ParseU64, RejectsEmptySignsAndSpaces) {
  EXPECT_FALSE(u64(""));
  EXPECT_FALSE(u64("+1"));
  EXPECT_FALSE(u64("-1"));
  EXPECT_FALSE(u64(" 1"));
  EXPECT_FALSE(u64("1 "));
  EXPECT_FALSE(u64("1x"));
}

TEST(ParseU64, Uint64RangeIsExact) {
  EXPECT_EQ(u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(u64("18446744073709551616"));
  EXPECT_FALSE(u64("99999999999999999999"));
}

} // namespace
