#include "hw/fan_device.hpp"

#include <gtest/gtest.h>

#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

TEST(FanDevice, StartsStopped) {
  SoloFan fan;
  EXPECT_DOUBLE_EQ(fan.rpm().value(), 0.0);
  EXPECT_DOUBLE_EQ(fan.airflow().value(), 0.0);
}

TEST(FanDevice, FullDutyReachesMaxRpm) {
  SoloFan fan;
  fan.set_duty(DutyCycle{100.0});
  fan.settle();
  EXPECT_NEAR(fan.rpm().value(), 4300.0, 1.0);
}

TEST(FanDevice, BelowStallDutyDoesNotSpin) {
  SoloFan fan;
  fan.set_duty(DutyCycle{2.0});  // below the 4% stall threshold
  fan.settle();
  EXPECT_DOUBLE_EQ(fan.rpm().value(), 0.0);
}

TEST(FanDevice, TargetRpmMonotoneInDuty) {
  SoloFan fan;
  double prev = -1.0;
  for (double d = 5.0; d <= 100.0; d += 5.0) {
    const double rpm = fan.target_rpm(DutyCycle{d}).value();
    EXPECT_GT(rpm, prev);
    prev = rpm;
  }
}

TEST(FanDevice, AirflowProportionalToRpm) {
  SoloFan fan;
  fan.set_duty(DutyCycle{100.0});
  fan.settle();
  EXPECT_NEAR(fan.airflow().value(), 32.0, 0.1);
  fan.set_duty(DutyCycle{52.0});
  fan.settle();
  EXPECT_NEAR(fan.airflow().value() / 32.0, fan.rpm().value() / 4300.0, 1e-9);
}

TEST(FanDevice, PowerFollowsCubicAffinityLaw) {
  SoloFan fan;
  fan.set_duty(DutyCycle{100.0});
  fan.settle();
  const double p_full = fan.power().value() - fan.params().idle_power.value();
  EXPECT_NEAR(p_full, 5.5, 0.05);

  fan.set_duty(DutyCycle{52.0});  // ~half RPM
  fan.settle();
  const double frac = fan.rpm().value() / 4300.0;
  const double p_half = fan.power().value() - fan.params().idle_power.value();
  EXPECT_NEAR(p_half, 5.5 * frac * frac * frac, 0.05);
}

TEST(FanDevice, IdlePowerOnlyWhenStopped) {
  SoloFan fan;
  EXPECT_NEAR(fan.power().value(), fan.params().idle_power.value(), 1e-9);
}

}  // namespace
}  // namespace thermctl::hw
