#include "sysfs/hwmon.hpp"

#include <gtest/gtest.h>

#include "hw/adt7467.hpp"
#include "hw/i2c.hpp"
#include "hw/thermal_sensor.hpp"
#include "solo_devices.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {
namespace {

struct HwmonRig {
  VirtualFs fs;
  hw::I2cBus bus;
  hw::SoloChip chip;
  Adt7467Driver driver{bus};
  hw::SoloSensor sensor{hw::SensorParams{.noise_sigma_degc = 0.0}, Rng{1}, 42.5};
  std::unique_ptr<HwmonDevice> hwmon;

  HwmonRig() {
    bus.attach(Adt7467Driver::kDefaultAddress, &chip);
    EXPECT_EQ(driver.probe(), DriverStatus::kOk);
    hwmon = std::make_unique<HwmonDevice>(fs, "/sys/class/hwmon", 0, sensor, driver);
  }
};

TEST(Hwmon, NameAttribute) {
  HwmonRig rig;
  EXPECT_EQ(rig.fs.read("/sys/class/hwmon/hwmon0/name").value(), "adt7467");
}

TEST(Hwmon, TempInputInMillidegrees) {
  HwmonRig rig;
  rig.sensor.sample();
  EXPECT_EQ(rig.fs.read("/sys/class/hwmon/hwmon0/temp1_input").value(), "42500");
}

TEST(Hwmon, ReadTemperatureHelper) {
  HwmonRig rig;
  rig.sensor.truth = 55.25;
  rig.sensor.sample();
  EXPECT_DOUBLE_EQ(rig.hwmon->read_temperature().value(), 55.25);
}

TEST(Hwmon, PwmWriteReachesChip) {
  HwmonRig rig;
  ASSERT_TRUE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1", "128"));
  EXPECT_NEAR(rig.chip.output_duty().percent(), 50.2, 0.5);
}

TEST(Hwmon, PwmReadback) {
  HwmonRig rig;
  rig.hwmon->write_pwm(DutyCycle{75.0});
  EXPECT_EQ(rig.fs.read("/sys/class/hwmon/hwmon0/pwm1").value(),
            std::to_string(static_cast<int>(hw::Adt7467::duty_to_reg(DutyCycle{75.0}))));
}

TEST(Hwmon, PwmWriteRejectsOutOfRange) {
  HwmonRig rig;
  EXPECT_FALSE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1", "300"));
  EXPECT_FALSE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1", "-1"));
  EXPECT_FALSE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1", "abc"));
}

TEST(Hwmon, FanInputReportsRpm) {
  HwmonRig rig;
  rig.chip.set_measured_rpm(Rpm{4300.0});
  const long rpm = rig.fs.read_long("/sys/class/hwmon/hwmon0/fan1_input").value();
  EXPECT_NEAR(static_cast<double>(rpm), 4300.0, 5.0);
}

TEST(Hwmon, FanInputZeroWhenStalled) {
  HwmonRig rig;
  rig.chip.set_measured_rpm(Rpm{0.0});
  EXPECT_EQ(rig.fs.read_long("/sys/class/hwmon/hwmon0/fan1_input").value(), 0);
}

TEST(Hwmon, PwmEnableSwitchesModes) {
  HwmonRig rig;
  ASSERT_TRUE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1_enable", "2"));
  EXPECT_FALSE(rig.chip.manual_mode());
  ASSERT_TRUE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1_enable", "1"));
  EXPECT_TRUE(rig.chip.manual_mode());
  EXPECT_FALSE(rig.fs.write("/sys/class/hwmon/hwmon0/pwm1_enable", "7"));
}

TEST(Hwmon, DestructorRemovesAttributes) {
  HwmonRig rig;
  rig.hwmon.reset();
  EXPECT_FALSE(rig.fs.exists("/sys/class/hwmon/hwmon0/temp1_input"));
  EXPECT_FALSE(rig.fs.exists("/sys/class/hwmon/hwmon0/pwm1"));
}

}  // namespace
}  // namespace thermctl::sysfs
