#include "common/stats.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace thermctl {
namespace {

TEST(Slope, LinearSeriesExact) {
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    ys.push_back(3.0 + 0.5 * i);
  }
  EXPECT_NEAR(slope(ys), 0.5, 1e-12);
}

TEST(Slope, RespectsDx) {
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    ys.push_back(3.0 + 0.5 * i);  // 0.5 per sample
  }
  // At 4 Hz (dx = 0.25 s) that is 2.0 per second.
  EXPECT_NEAR(slope(ys, 0.25), 2.0, 1e-12);
}

TEST(Slope, ConstantSeriesIsZero) {
  const std::vector<double> ys{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(slope(ys), 0.0);
}

TEST(Slope, TooFewSamplesIsZero) {
  EXPECT_DOUBLE_EQ(slope(std::vector<double>{1.0}), 0.0);
  EXPECT_DOUBLE_EQ(slope(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace thermctl
