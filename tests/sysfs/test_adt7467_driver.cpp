#include "sysfs/adt7467_driver.hpp"

#include <gtest/gtest.h>

#include "hw/adt7467.hpp"
#include "hw/i2c.hpp"
#include "solo_devices.hpp"

namespace thermctl::sysfs {
namespace {

struct DriverRig {
  hw::I2cBus bus;
  hw::SoloChip chip;
  Adt7467Driver driver{bus};

  DriverRig() { bus.attach(Adt7467Driver::kDefaultAddress, &chip); }
};

TEST(Adt7467Driver, ProbeSucceedsAndEntersManualMode) {
  DriverRig rig;
  EXPECT_EQ(rig.driver.probe(), DriverStatus::kOk);
  EXPECT_TRUE(rig.driver.probed());
  EXPECT_TRUE(rig.chip.manual_mode());
}

TEST(Adt7467Driver, ProbeFailsWithNoDevice) {
  hw::I2cBus bus;
  Adt7467Driver driver{bus};
  EXPECT_EQ(driver.probe(), DriverStatus::kProbeFailed);
  EXPECT_FALSE(driver.probed());
}

TEST(Adt7467Driver, ProbeFailsWithWrongChip) {
  // A device that answers but with wrong IDs.
  class Imposter final : public hw::I2cSlave {
   public:
    std::optional<std::uint8_t> read_register(std::uint8_t) override { return 0x00; }
    bool write_register(std::uint8_t, std::uint8_t) override { return true; }
  };
  hw::I2cBus bus;
  Imposter imposter;
  bus.attach(Adt7467Driver::kDefaultAddress, &imposter);
  Adt7467Driver driver{bus};
  EXPECT_EQ(driver.probe(), DriverStatus::kProbeFailed);
}

TEST(Adt7467Driver, SetDutyRequiresProbe) {
  DriverRig rig;
  EXPECT_EQ(rig.driver.set_duty(DutyCycle{50.0}), DriverStatus::kProbeFailed);
}

TEST(Adt7467Driver, DutyRoundTrip) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  ASSERT_EQ(rig.driver.set_duty(DutyCycle{63.0}), DriverStatus::kOk);
  DutyCycle readback;
  ASSERT_EQ(rig.driver.read_duty(readback), DriverStatus::kOk);
  EXPECT_NEAR(readback.percent(), 63.0, 0.5);  // 8-bit register quantization
  EXPECT_NEAR(rig.chip.output_duty().percent(), 63.0, 0.5);
}

TEST(Adt7467Driver, TemperatureReadThroughBus) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  rig.chip.set_measured_temperature(Celsius{51.0});
  Celsius t;
  ASSERT_EQ(rig.driver.read_temperature(t), DriverStatus::kOk);
  EXPECT_DOUBLE_EQ(t.value(), 51.0);
}

TEST(Adt7467Driver, RpmReadAndStallDetection) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  rig.chip.set_measured_rpm(Rpm{2150.0});
  std::optional<Rpm> rpm;
  ASSERT_EQ(rig.driver.read_rpm(rpm), DriverStatus::kOk);
  ASSERT_TRUE(rpm.has_value());
  EXPECT_NEAR(rpm->value(), 2150.0, 3.0);

  rig.chip.set_measured_rpm(Rpm{0.0});
  ASSERT_EQ(rig.driver.read_rpm(rpm), DriverStatus::kOk);
  EXPECT_FALSE(rpm.has_value());
}

TEST(Adt7467Driver, AutoModeHandoff) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  ASSERT_EQ(rig.driver.set_automatic_mode(), DriverStatus::kOk);
  EXPECT_FALSE(rig.chip.manual_mode());
  ASSERT_EQ(rig.driver.set_manual_mode(), DriverStatus::kOk);
  EXPECT_TRUE(rig.chip.manual_mode());
}

TEST(Adt7467Driver, ConfigureAutoCurve) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  ASSERT_EQ(rig.driver.configure_auto_curve(DutyCycle{10.0}, Celsius{38.0}, CelsiusDelta{44.0}),
            DriverStatus::kOk);
  EXPECT_NEAR(rig.chip.auto_curve(Celsius{38.0}).percent(), 10.0, 0.5);
  EXPECT_NEAR(rig.chip.auto_curve(Celsius{82.0}).percent(), 100.0, 0.5);
}

TEST(Adt7467Driver, MaxDutyCapAppliesInAutoMode) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  ASSERT_EQ(rig.driver.set_max_duty(DutyCycle{25.0}), DriverStatus::kOk);
  ASSERT_EQ(rig.driver.set_automatic_mode(), DriverStatus::kOk);
  rig.chip.set_measured_temperature(Celsius{90.0});
  EXPECT_NEAR(rig.chip.output_duty().percent(), 25.0, 0.5);
}

TEST(Adt7467Driver, BusFaultSurfacesAsIoError) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  rig.bus.inject_bus_fault();
  EXPECT_EQ(rig.driver.set_duty(DutyCycle{10.0}), DriverStatus::kIoError);
  Celsius t;
  EXPECT_EQ(rig.driver.read_temperature(t), DriverStatus::kIoError);
}

TEST(Adt7467Driver, FaultedReadLeavesCallerStateUntouched) {
  // Protocol contract: an errored read must not consume `out`. A caller
  // that (wrongly) ignored the status would keep its previous value rather
  // than pick up garbage.
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  rig.chip.set_measured_temperature(Celsius{47.0});
  Celsius temp{0.0};
  ASSERT_EQ(rig.driver.read_temperature(temp), DriverStatus::kOk);
  ASSERT_DOUBLE_EQ(temp.value(), 47.0);
  DutyCycle duty{0.0};
  ASSERT_EQ(rig.driver.set_duty(DutyCycle{63.0}), DriverStatus::kOk);
  ASSERT_EQ(rig.driver.read_duty(duty), DriverStatus::kOk);

  rig.bus.inject_bus_fault();
  rig.chip.set_measured_temperature(Celsius{90.0});
  const double held_temp = temp.value();
  const double held_duty = duty.percent();
  EXPECT_EQ(rig.driver.read_temperature(temp), DriverStatus::kIoError);
  EXPECT_DOUBLE_EQ(temp.value(), held_temp);
  EXPECT_EQ(rig.driver.read_duty(duty), DriverStatus::kIoError);
  EXPECT_DOUBLE_EQ(duty.percent(), held_duty);
  // The driver itself is also unchanged: once the bus recovers it keeps
  // working without a re-probe.
  EXPECT_TRUE(rig.driver.probed());
  rig.bus.clear_bus_fault();
  EXPECT_EQ(rig.driver.read_temperature(temp), DriverStatus::kOk);
  EXPECT_DOUBLE_EQ(temp.value(), 90.0);
}

TEST(Adt7467Driver, TransientBusGlitchAbsorbedByRetry) {
  DriverRig rig;
  ASSERT_EQ(rig.driver.probe(), DriverStatus::kOk);
  rig.bus.inject_transient_bus_fault(2);
  // The default budget (3 attempts) rides out a 2-transfer glitch: the
  // caller never sees the fault.
  EXPECT_EQ(rig.driver.set_duty(DutyCycle{42.0}), DriverStatus::kOk);
  EXPECT_NEAR(rig.chip.output_duty().percent(), 42.0, 0.5);
  EXPECT_EQ(rig.driver.io_stats().retries, 2u);
  EXPECT_EQ(rig.driver.io_stats().bus_faults, 2u);
  EXPECT_EQ(rig.driver.io_stats().exhausted, 0u);
}

}  // namespace
}  // namespace thermctl::sysfs
