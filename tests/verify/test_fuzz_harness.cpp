#include "verify/fuzz.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace thermctl::verify {
namespace {

TEST(AdversarialStream, SameSeedSameStream) {
  AdversarialStream a{123, /*allow_nan=*/true};
  AdversarialStream b{123, /*allow_nan=*/true};
  for (int i = 0; i < 2000; ++i) {
    // Bit-pattern comparison so identical NaNs count as equal.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.next()), std::bit_cast<std::uint64_t>(b.next()))
        << "sample " << i;
  }
}

TEST(AdversarialStream, NanOnlyWhenAllowed) {
  AdversarialStream finite{55, /*allow_nan=*/false};
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(std::isfinite(finite.next())) << "sample " << i;
  }
  AdversarialStream hostile{55, /*allow_nan=*/true};
  bool saw_nan = false;
  for (int i = 0; i < 5000; ++i) {
    saw_nan = saw_nan || std::isnan(hostile.next());
  }
  EXPECT_TRUE(saw_nan);  // NaN-burst segments occur at ~1/6 of segments
}

TEST(AdversarialStream, CoversExtremes) {
  AdversarialStream stream{9, /*allow_nan=*/false};
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i < 5000; ++i) {
    const double v = stream.next();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Extreme-spike segments push far beyond any physical temperature.
  EXPECT_LT(lo, -1000.0);
  EXPECT_GT(hi, 1000.0);
}

TEST(Fuzz, UnifiedSurvivesSeeds) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const FuzzReport report = fuzz_unified(seed, 800);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.ticks, 800u);
  }
}

TEST(Fuzz, PredictiveSurvivesRaplWrap) {
  // Odd seeds run fault-aware, even seeds trust the sensor.
  for (std::uint64_t seed : {1ULL, 2ULL, 7ULL}) {
    const FuzzReport report = fuzz_predictive(seed, 800);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(Fuzz, PidSurvivesResetStorm) {
  for (std::uint64_t seed : {1ULL, 11ULL}) {
    const FuzzReport report = fuzz_pid(seed, 800);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(Fuzz, StepWiseSurvivesNanBursts) {
  for (std::uint64_t seed : {1ULL, 13ULL}) {
    const FuzzReport report = fuzz_step_wise(seed, 800);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(Fuzz, SelectorAndArraySurviveHostileRounds) {
  const FuzzReport report = fuzz_selector(17, 2000);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Fuzz, AllMergesAndCarriesSeed) {
  const FuzzReport report = fuzz_all(29, 400);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.seed, 29u);
  EXPECT_GT(report.ticks, 400u * 4);  // every target contributed
}

TEST(Fuzz, ReportsAreDeterministic) {
  const FuzzReport a = fuzz_unified(31, 400);
  const FuzzReport b = fuzz_unified(31, 400);
  EXPECT_EQ(a.invariants.checks, b.invariants.checks);
  EXPECT_EQ(a.invariants.violation_count, b.invariants.violation_count);
}

}  // namespace
}  // namespace thermctl::verify
