// bench_harness_test — the comparisons of the bench gate harness
// (bench/harness.hpp): each direction, the tolerance edge, a missing key,
// and the flag parser's refusals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"

namespace wsx::bench {
namespace {

/// The gate's misses for one measurement against a baseline value of 100
/// under a 50% tolerance, so every limit is exact: 150 for a cost, 50 for
/// a rate and ±50 for a drift.
std::vector<std::string> misses(double value, Better better) {
  Result<json::Value> baseline = json::parse(R"({"m":100})");
  EXPECT_TRUE(baseline.ok());
  return gate({{"m", value, better}}, *baseline, 50);
}

TEST(BenchHarness, ACostMayRiseToItsLimitAndFallFreely) {
  EXPECT_TRUE(misses(150, Better::kLower).empty());
  EXPECT_TRUE(misses(1, Better::kLower).empty());
  const std::vector<std::string> over = misses(150.5, Better::kLower);
  ASSERT_EQ(over.size(), 1u);
  EXPECT_EQ(over[0], "REGRESSION m = 150.5 vs baseline 100 (limit 150)");
}

TEST(BenchHarness, ARateMayFallToItsLimitAndRiseFreely) {
  EXPECT_TRUE(misses(50, Better::kHigher).empty());
  EXPECT_TRUE(misses(1000, Better::kHigher).empty());
  const std::vector<std::string> under = misses(49.5, Better::kHigher);
  ASSERT_EQ(under.size(), 1u);
  EXPECT_EQ(under[0], "REGRESSION m = 49.5 vs baseline 100 (limit 50)");
}

TEST(BenchHarness, AVirtualClockCountMayDriftToItsLimitEitherWay) {
  EXPECT_TRUE(misses(150, Better::kEither).empty());
  EXPECT_TRUE(misses(50, Better::kEither).empty());
  EXPECT_EQ(misses(150.5, Better::kEither).size(), 1u);
  const std::vector<std::string> under = misses(49.5, Better::kEither);
  ASSERT_EQ(under.size(), 1u);
  EXPECT_EQ(under[0], "DRIFT m = 49.5 vs baseline 100 (allowed ±50)");
}

TEST(BenchHarness, ZeroToleranceAcceptsOnlyTheBaselineValue) {
  Result<json::Value> baseline = json::parse(R"({"m":7})");
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(gate({{"m", 7, Better::kEither}}, *baseline, 0).empty());
  EXPECT_EQ(gate({{"m", 8, Better::kEither}}, *baseline, 0).size(), 1u);
  EXPECT_EQ(gate({{"m", 6, Better::kEither}}, *baseline, 0).size(), 1u);
}

TEST(BenchHarness, AMeasurementTheBaselineLacksIsAMiss) {
  Result<json::Value> baseline = json::parse(R"({"m":100,"text":"100"})");
  ASSERT_TRUE(baseline.ok());
  const std::vector<std::string> found = gate(
      {{"m", 100, Better::kLower}, {"gone", 1, Better::kLower}, {"text", 100, Better::kHigher}},
      *baseline, 1000);
  EXPECT_EQ(found, (std::vector<std::string>{"baseline lacks gone", "baseline lacks text"}));
}

TEST(BenchHarness, ParsesCountsAndTextAndRefusesTheRest) {
  std::size_t scale = 20;
  std::size_t reps = 3;
  std::string out = "BENCH_x.json";
  const std::vector<Flag> flags = {{"--scale", &scale},
                                   {"--reps", &reps, nullptr, /*nonzero=*/true},
                                   {"--out", nullptr, &out}};
  const auto parse = [&](std::vector<std::string> args) {
    args.insert(args.begin(), "bench_x");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return parse_flags(static_cast<int>(argv.size()), argv.data(), flags, "");
  };
  EXPECT_TRUE(parse({"--scale", "5", "--out", "o.json", "--reps", "2"}));
  EXPECT_EQ(scale, 5u);
  EXPECT_EQ(out, "o.json");
  EXPECT_EQ(reps, 2u);
  EXPECT_FALSE(parse({"--scale", "-1"}));
  EXPECT_FALSE(parse({"--reps", "0"}));
  EXPECT_FALSE(parse({"--scale"}));
  EXPECT_FALSE(parse({"--bogus", "1"}));
}

}  // namespace
}  // namespace wsx::bench
