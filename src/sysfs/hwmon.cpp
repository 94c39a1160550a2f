#include "sysfs/hwmon.hpp"

#include <cmath>
#include <cstdlib>

#include "hw/adt7467.hpp"

namespace thermctl::sysfs {

HwmonDevice::HwmonDevice(VirtualFs& fs, std::string root, int index, hw::ThermalSensor& sensor,
                         Adt7467Driver& driver)
    : fs_(fs), dir_(root + "/hwmon" + std::to_string(index)), sensor_(sensor), driver_(driver) {
  fs_.add_attribute(dir_ + "/name", [] { return std::string{"adt7467"}; });
  fs_.add_attribute_long(dir_ + "/temp1_input", [this] {
    // Kernel convention: millidegrees Celsius.
    return to_millidegrees(sensor_.last_reading());
  });
  fs_.add_attribute(dir_ + "/fan1_input", [this] {
    std::optional<Rpm> rpm;
    if (driver_.read_rpm(rpm) != DriverStatus::kOk || !rpm.has_value()) {
      return std::string{"0"};
    }
    return std::to_string(static_cast<long>(std::lround(rpm->value())));
  });
  fs_.add_attribute_long(
      dir_ + "/pwm1",
      [this]() -> long {
        DutyCycle d;
        if (driver_.read_duty(d) != DriverStatus::kOk) {
          return 0;
        }
        return static_cast<long>(hw::Adt7467::duty_to_reg(d));
      },
      [this](long raw) {
        if (raw < 0 || raw > 255) {
          return false;
        }
        return driver_.set_duty(hw::Adt7467::reg_to_duty(static_cast<std::uint8_t>(raw))) ==
               DriverStatus::kOk;
      });
  fs_.add_attribute(
      dir_ + "/pwm1_enable", [] { return std::string{"1"}; },
      [this](const std::string& value) {
        if (value == "1") {
          return driver_.set_manual_mode() == DriverStatus::kOk;
        }
        if (value == "2") {
          return driver_.set_automatic_mode() == DriverStatus::kOk;
        }
        return false;
      });
  // Controllers poll temp1_input and pwm1 every sampling tick on every node;
  // cached handles keep that off the path-lookup slow path. The handles are
  // to our own attributes, dropped with them in the destructor.
  temp_attr_ = fs_.open(dir_ + "/temp1_input");
  pwm_attr_ = fs_.open(dir_ + "/pwm1");
  pwm_enable_attr_ = fs_.open(dir_ + "/pwm1_enable");
}

HwmonDevice::~HwmonDevice() {
  for (const auto& name : {"/name", "/temp1_input", "/fan1_input", "/pwm1", "/pwm1_enable"}) {
    fs_.remove_attribute(dir_ + name);
  }
}

Celsius HwmonDevice::read_temperature() const {
  return from_millidegrees(fs_.read_long(temp_attr_).value_or(0));
}

bool HwmonDevice::write_pwm(DutyCycle duty) {
  return fs_.write_long(pwm_attr_, hw::Adt7467::duty_to_reg(duty));
}

bool HwmonDevice::set_manual_mode() { return fs_.write(pwm_enable_attr_, "1"); }

bool HwmonDevice::set_automatic_mode() { return fs_.write(pwm_enable_attr_, "2"); }

}  // namespace thermctl::sysfs
