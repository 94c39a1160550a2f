#include "hw/thermal_sensor.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

SensorParams noiseless() {
  SensorParams p;
  p.noise_sigma_degc = 0.0;
  p.quantization_degc = 0.25;
  return p;
}

TEST(ThermalSensor, QuantizesToStep) {
  SoloSensor s{noiseless(), Rng{1}, 42.37};
  EXPECT_DOUBLE_EQ(s.sample().value(), 42.25);
  s.truth = 42.40;
  EXPECT_DOUBLE_EQ(s.sample().value(), 42.50);
}

TEST(ThermalSensor, CoarseQuantization) {
  SensorParams p = noiseless();
  p.quantization_degc = 1.0;  // k8temp-style integer reporting
  SoloSensor s{p, Rng{1}, 51.6};
  EXPECT_DOUBLE_EQ(s.sample().value(), 52.0);
}

TEST(ThermalSensor, OffsetApplied) {
  SensorParams p = noiseless();
  p.offset_degc = 2.0;
  SoloSensor s{p, Rng{1}, 40.0};
  EXPECT_DOUBLE_EQ(s.sample().value(), 42.0);
}

TEST(ThermalSensor, SampleAndHold) {
  SoloSensor s{noiseless(), Rng{1}, 40.0};
  s.sample();
  s.truth = 60.0;
  // last_reading() must not resample.
  EXPECT_DOUBLE_EQ(s.last_reading().value(), 40.0);
  EXPECT_DOUBLE_EQ(s.sample().value(), 60.0);
}

TEST(ThermalSensor, NoiseIsZeroMeanAndBounded) {
  SensorParams p;
  p.noise_sigma_degc = 0.18;
  p.quantization_degc = 0.25;
  SoloSensor s{p, Rng{42}, 50.0};
  double sum = 0.0;
  double max_dev = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double v = s.sample().value();
    sum += v;
    max_dev = std::max(max_dev, std::abs(v - 50.0));
  }
  EXPECT_NEAR(sum / n, 50.0, 0.02);
  EXPECT_LT(max_dev, 1.5);  // ~8 sigma; no wild outliers
  EXPECT_GT(max_dev, 0.2);  // noise actually present (jitter source)
}

TEST(ThermalSensor, NoiseProducesTypeIIIJitter) {
  // Quantized noisy readings of a constant temperature must toggle between
  // adjacent codes — the Type III signature the controller must ignore.
  SensorParams p;
  p.noise_sigma_degc = 0.18;
  SoloSensor s{p, Rng{7}, 50.1};
  int distinct_transitions = 0;
  double prev = s.sample().value();
  for (int i = 0; i < 200; ++i) {
    const double v = s.sample().value();
    if (v != prev) {
      ++distinct_transitions;
    }
    prev = v;
  }
  EXPECT_GT(distinct_transitions, 10);
}

TEST(ThermalSensor, StuckFaultFreezesReading) {
  SoloSensor s{noiseless(), Rng{1}, 40.0};
  s.sample();
  s.inject_stuck_fault();
  s.truth = 80.0;
  EXPECT_DOUBLE_EQ(s.sample().value(), 40.0);  // frozen
  s.clear_fault();
  EXPECT_DOUBLE_EQ(s.sample().value(), 80.0);
}

TEST(ThermalSensor, StuckBeforeFirstSampleHoldsFirstRealReading) {
  // Regression: a fault injected before any sample() must not freeze the
  // constructed 0.0 °C placeholder — a frozen register holds its last
  // *conversion*, and the first conversion happens at the first sample.
  SoloSensor s{noiseless(), Rng{1}, 55.0};
  s.inject_stuck_fault();
  EXPECT_FALSE(s.ready());
  EXPECT_DOUBLE_EQ(s.sample().value(), 55.0);  // real reading, not 0.0
  EXPECT_TRUE(s.ready());
  s.truth = 80.0;
  EXPECT_DOUBLE_EQ(s.sample().value(), 55.0);  // now frozen at the first one
}

TEST(ThermalSensor, ReadyFlipsOnFirstSample) {
  SoloSensor s{noiseless(), Rng{1}, 40.0};
  EXPECT_FALSE(s.ready());
  s.sample();
  EXPECT_TRUE(s.ready());
}

TEST(ThermalSensor, DeterministicGivenSeed) {
  SensorParams p;
  p.noise_sigma_degc = 0.2;
  SoloSensor a{p, Rng{99}, 45.0};
  SoloSensor b{p, Rng{99}, 45.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.sample().value(), b.sample().value());
  }
}

TEST(ThermalSensorDeath, RejectsNullTruth) {
  EXPECT_DEATH(SensorColumns(1, SensorParams{}, nullptr), "truth");
}

TEST(ThermalSensorDeath, RejectsNonPositiveQuantization) {
  SensorParams p;
  p.quantization_degc = 0.0;
  EXPECT_DEATH(SoloSensor(p, Rng{1}, 0.0), "quantization");
}

}  // namespace
}  // namespace thermctl::hw
