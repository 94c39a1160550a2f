#include "hw/adt7467.hpp"

#include <gtest/gtest.h>

#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

TEST(Adt7467, IdentificationRegisters) {
  SoloChip chip;
  EXPECT_EQ(chip.read_register(Adt7467::kRegDeviceId).value(), Adt7467::kDeviceId);
  EXPECT_EQ(chip.read_register(Adt7467::kRegCompanyId).value(), Adt7467::kCompanyId);
}

TEST(Adt7467, UnknownRegisterNaks) {
  SoloChip chip;
  EXPECT_FALSE(chip.read_register(0x00).has_value());
  EXPECT_FALSE(chip.write_register(0x00, 1));
}

TEST(Adt7467, DutyRegisterEncoding) {
  EXPECT_EQ(Adt7467::duty_to_reg(DutyCycle{0.0}), 0);
  EXPECT_EQ(Adt7467::duty_to_reg(DutyCycle{100.0}), 255);
  EXPECT_EQ(Adt7467::duty_to_reg(DutyCycle{50.0}), 128);
  EXPECT_NEAR(Adt7467::reg_to_duty(128).percent(), 50.2, 0.1);
  EXPECT_DOUBLE_EQ(Adt7467::reg_to_duty(255).percent(), 100.0);
}

TEST(Adt7467, TemperatureRegisterIsSignedCelsius) {
  SoloChip chip;
  chip.set_measured_temperature(Celsius{51.4});
  EXPECT_EQ(chip.read_register(Adt7467::kRegTempRemote1).value(), 51);
  chip.set_measured_temperature(Celsius{-5.0});
  EXPECT_EQ(static_cast<std::int8_t>(chip.read_register(Adt7467::kRegTempRemote1).value()), -5);
}

TEST(Adt7467, TachEncodesRpm) {
  SoloChip chip;
  chip.set_measured_rpm(Rpm{4300.0});
  const std::uint16_t count =
      static_cast<std::uint16_t>((chip.read_register(Adt7467::kRegTach1High).value() << 8) |
                                 chip.read_register(Adt7467::kRegTach1Low).value());
  EXPECT_NEAR(Adt7467::kTachClock / count, 4300.0, 5.0);
}

TEST(Adt7467, TachStalledReportsFFFF) {
  SoloChip chip;
  chip.set_measured_rpm(Rpm{0.0});
  EXPECT_EQ(chip.read_register(Adt7467::kRegTach1Low).value(), 0xFF);
  EXPECT_EQ(chip.read_register(Adt7467::kRegTach1High).value(), 0xFF);
}

TEST(Adt7467, BootsInAutomaticMode) {
  SoloChip chip;
  EXPECT_FALSE(chip.manual_mode());
}

TEST(Adt7467, AutoCurveMatchesFig1) {
  // PWMmin = 10% below Tmin = 38 °C, linear to 100% at Tmax = 82 °C.
  SoloChip chip;
  EXPECT_NEAR(chip.auto_curve(Celsius{30.0}).percent(), 10.2, 0.5);
  EXPECT_NEAR(chip.auto_curve(Celsius{38.0}).percent(), 10.2, 0.5);
  EXPECT_NEAR(chip.auto_curve(Celsius{60.0}).percent(), 55.1, 1.0);  // halfway
  EXPECT_NEAR(chip.auto_curve(Celsius{82.0}).percent(), 100.0, 0.1);
  EXPECT_NEAR(chip.auto_curve(Celsius{95.0}).percent(), 100.0, 0.1);  // clamped
}

TEST(Adt7467, AutoModeTracksMeasurement) {
  SoloChip chip;
  chip.set_measured_temperature(Celsius{38.0});
  const double cool_duty = chip.output_duty().percent();
  chip.set_measured_temperature(Celsius{70.0});
  EXPECT_GT(chip.output_duty().percent(), cool_duty + 30.0);
}

TEST(Adt7467, ManualWriteRejectedInAutoMode) {
  SoloChip chip;
  EXPECT_FALSE(chip.write_register(Adt7467::kRegPwm1Duty, 200));
}

TEST(Adt7467, ManualModeAcceptsDutyWrites) {
  SoloChip chip;
  ASSERT_TRUE(chip.write_register(Adt7467::kRegPwm1Config,
                                  static_cast<std::uint8_t>(Adt7467::kBehaviourManual << 5)));
  EXPECT_TRUE(chip.manual_mode());
  ASSERT_TRUE(chip.write_register(Adt7467::kRegPwm1Duty, 200));
  EXPECT_NEAR(chip.output_duty().percent(), 78.4, 0.2);
  // Temperature changes no longer move the output.
  chip.set_measured_temperature(Celsius{80.0});
  EXPECT_NEAR(chip.output_duty().percent(), 78.4, 0.2);
}

TEST(Adt7467, ReturnToAutoRecomputesOutput) {
  SoloChip chip;
  chip.write_register(Adt7467::kRegPwm1Config,
                      static_cast<std::uint8_t>(Adt7467::kBehaviourManual << 5));
  chip.write_register(Adt7467::kRegPwm1Duty, 255);
  chip.set_measured_temperature(Celsius{38.0});
  chip.write_register(Adt7467::kRegPwm1Config,
                      static_cast<std::uint8_t>(Adt7467::kBehaviourAutoRemote1 << 5));
  EXPECT_LT(chip.output_duty().percent(), 15.0);  // back on the curve
}

TEST(Adt7467, PwmMaxClampsAutoCurve) {
  SoloChip chip;
  chip.write_register(Adt7467::kRegPwm1Max, Adt7467::duty_to_reg(DutyCycle{75.0}));
  chip.set_measured_temperature(Celsius{90.0});
  EXPECT_NEAR(chip.output_duty().percent(), 75.0, 0.5);
}

TEST(Adt7467, CurveParametersProgrammable) {
  SoloChip chip;
  chip.write_register(Adt7467::kRegTminRemote1, 45);
  chip.write_register(Adt7467::kRegTrangeRemote1, 20);
  chip.write_register(Adt7467::kRegPwm1Min, Adt7467::duty_to_reg(DutyCycle{20.0}));
  EXPECT_NEAR(chip.auto_curve(Celsius{45.0}).percent(), 20.0, 0.5);
  EXPECT_NEAR(chip.auto_curve(Celsius{65.0}).percent(), 100.0, 0.5);
  EXPECT_NEAR(chip.auto_curve(Celsius{55.0}).percent(), 60.0, 1.0);
}

TEST(Adt7467, ReadbackOfConfigRegisters) {
  SoloChip chip;
  chip.write_register(Adt7467::kRegTminRemote1, 40);
  EXPECT_EQ(chip.read_register(Adt7467::kRegTminRemote1).value(), 40);
  chip.write_register(Adt7467::kRegPwm1Min, 51);
  EXPECT_EQ(chip.read_register(Adt7467::kRegPwm1Min).value(), 51);
  EXPECT_EQ(chip.read_register(Adt7467::kRegTrangeRemote1).value(), 44);
}

}  // namespace
}  // namespace thermctl::hw
