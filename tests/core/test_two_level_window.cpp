#include "core/two_level_window.hpp"

#include <gtest/gtest.h>

namespace thermctl::core {
namespace {

TEST(TwoLevelWindow, RoundCompletesEveryL1SizeSamples) {
  TwoLevelWindow w;
  EXPECT_FALSE(w.add_sample(Celsius{40.0}).has_value());
  EXPECT_FALSE(w.add_sample(Celsius{40.0}).has_value());
  EXPECT_FALSE(w.add_sample(Celsius{40.0}).has_value());
  EXPECT_TRUE(w.add_sample(Celsius{40.0}).has_value());
  // Level one cleared; next round starts fresh.
  EXPECT_EQ(w.level1_fill(), 0u);
}

TEST(TwoLevelWindow, Level1DeltaIsSumDifference) {
  TwoLevelWindow w;
  w.add_sample(Celsius{40.0});
  w.add_sample(Celsius{40.5});
  w.add_sample(Celsius{41.0});
  const auto round = w.add_sample(Celsius{41.5});
  ASSERT_TRUE(round.has_value());
  // (41.0 + 41.5) - (40.0 + 40.5) = 2.0
  EXPECT_NEAR(round->level1_delta.value(), 2.0, 1e-12);
  EXPECT_NEAR(round->level1_average.value(), 40.75, 1e-12);
}

TEST(TwoLevelWindow, ConstantTemperatureZeroDelta) {
  TwoLevelWindow w;
  for (int i = 0; i < 3; ++i) {
    w.add_sample(Celsius{50.0});
  }
  const auto round = w.add_sample(Celsius{50.0});
  ASSERT_TRUE(round.has_value());
  EXPECT_DOUBLE_EQ(round->level1_delta.value(), 0.0);
}

TEST(TwoLevelWindow, SingleSampleSpikeIsDamped) {
  // Type III jitter: one outlier sample contributes only once to a sum of
  // two, so the delta stays below the outlier's own magnitude.
  TwoLevelWindow w;
  w.add_sample(Celsius{50.0});
  w.add_sample(Celsius{50.0});
  w.add_sample(Celsius{52.0});  // spike
  const auto round = w.add_sample(Celsius{50.0});
  ASSERT_TRUE(round.has_value());
  EXPECT_NEAR(round->level1_delta.value(), 2.0, 1e-12);
  // Compare to a sustained rise of the same per-sample magnitude, which
  // scores twice as high:
  TwoLevelWindow w2;
  w2.add_sample(Celsius{50.0});
  w2.add_sample(Celsius{50.0});
  w2.add_sample(Celsius{52.0});
  const auto round2 = w2.add_sample(Celsius{52.0});
  EXPECT_NEAR(round2->level1_delta.value(), 4.0, 1e-12);
}

TEST(TwoLevelWindow, AlternatingJitterCancels) {
  TwoLevelWindow w;
  w.add_sample(Celsius{50.0});
  w.add_sample(Celsius{51.0});
  w.add_sample(Celsius{50.0});
  const auto round = w.add_sample(Celsius{51.0});
  ASSERT_TRUE(round.has_value());
  EXPECT_DOUBLE_EQ(round->level1_delta.value(), 0.0);
}

TEST(TwoLevelWindow, Level2NotValidUntilTwoRounds) {
  TwoLevelWindow w;
  for (int i = 0; i < 3; ++i) {
    w.add_sample(Celsius{40.0});
  }
  const auto first = w.add_sample(Celsius{40.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->level2_valid);

  for (int i = 0; i < 3; ++i) {
    w.add_sample(Celsius{41.0});
  }
  const auto second = w.add_sample(Celsius{41.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->level2_valid);
  EXPECT_NEAR(second->level2_delta.value(), 1.0, 1e-12);
}

TEST(TwoLevelWindow, Level2TracksGradualTrendAcrossRounds) {
  // A slow drift of +0.1 °C per sample is nearly invisible to Δt_L1
  // (0.2 per round) but accumulates to Δt_L2 ≈ 1.6 across the 5-round FIFO.
  TwoLevelWindow w;
  double t = 40.0;
  CelsiusDelta last_l1{0.0};
  CelsiusDelta last_l2{0.0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      const auto r = w.add_sample(Celsius{t});
      if (r.has_value()) {
        last_l1 = r->level1_delta;
        last_l2 = r->level2_delta;
      }
      t += 0.1;
    }
  }
  EXPECT_NEAR(last_l1.value(), 0.4, 1e-9);
  EXPECT_NEAR(last_l2.value(), 1.6, 1e-9);
  EXPECT_GT(last_l2.value(), 3.0 * last_l1.value());
}

TEST(TwoLevelWindow, FifoEvictsOldestRound) {
  WindowConfig cfg;
  cfg.level2_size = 2;
  TwoLevelWindow w{cfg};
  auto push_round = [&w](double temp) {
    std::optional<WindowRound> r;
    for (int i = 0; i < 4; ++i) {
      r = w.add_sample(Celsius{temp});
    }
    return *r;
  };
  push_round(40.0);
  push_round(45.0);
  const WindowRound r = push_round(50.0);
  // FIFO holds {45, 50}: delta = 5, not 10.
  EXPECT_NEAR(r.level2_delta.value(), 5.0, 1e-12);
  EXPECT_NEAR(w.level2_front().value(), 45.0, 1e-12);
  EXPECT_NEAR(w.level2_rear().value(), 50.0, 1e-12);
}

TEST(TwoLevelWindow, ResetClearsBothLevels) {
  TwoLevelWindow w;
  for (int i = 0; i < 9; ++i) {
    w.add_sample(Celsius{40.0});
  }
  w.reset();
  EXPECT_EQ(w.level1_fill(), 0u);
  EXPECT_EQ(w.level2_fill(), 0u);
}

TEST(TwoLevelWindow, PaperTimingFourHzGivesOneSecondRounds) {
  // 4 samples/s with a 4-entry level-one window = 1 round per second
  // (§3.2.1's worked example).
  TwoLevelWindow w;
  int rounds = 0;
  for (int sample = 0; sample < 4 * 10; ++sample) {  // 10 s at 4 Hz
    if (w.add_sample(Celsius{40.0}).has_value()) {
      ++rounds;
    }
  }
  EXPECT_EQ(rounds, 10);
}

TEST(TwoLevelWindowDeath, OddLevel1SizeAborts) {
  WindowConfig cfg;
  cfg.level1_size = 3;
  EXPECT_DEATH(TwoLevelWindow{cfg}, "even");
}

TEST(TwoLevelWindowDeath, TinyLevel2Aborts) {
  WindowConfig cfg;
  cfg.level2_size = 1;
  EXPECT_DEATH(TwoLevelWindow{cfg}, "level-two");
}

TEST(TwoLevelWindowDeath, GeometryAboveInlineCapacityAborts) {
  WindowConfig wide;
  wide.level1_size = TwoLevelWindow::kMaxLevel1 + 2;
  EXPECT_DEATH(TwoLevelWindow{wide}, "inline capacity");
  WindowConfig deep;
  deep.level2_size = TwoLevelWindow::kMaxLevel2 + 1;
  EXPECT_DEATH(TwoLevelWindow{deep}, "inline capacity");
}

// Sweep window geometries: a linear ramp of rate r gives
// Δt_L1 = r * (size/2)^2 exactly, for any even size.
class WindowGeometrySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowGeometrySweep, RampDeltaMatchesClosedForm) {
  const std::size_t size = GetParam();
  WindowConfig cfg;
  cfg.level1_size = size;
  TwoLevelWindow w{cfg};
  const double rate = 0.5;
  std::optional<WindowRound> round;
  for (std::size_t i = 0; i < size; ++i) {
    round = w.add_sample(Celsius{40.0 + rate * static_cast<double>(i)});
  }
  ASSERT_TRUE(round.has_value());
  const double half = static_cast<double>(size) / 2.0;
  EXPECT_NEAR(round->level1_delta.value(), rate * half * half, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(EvenSizes, WindowGeometrySweep,
                         ::testing::Values(2u, 4u, 6u, 8u, 12u, 16u));

}  // namespace
}  // namespace thermctl::core
