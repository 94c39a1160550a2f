#include "sysfs/hwmon.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "hw/adt7467.hpp"

namespace thermctl::sysfs {

constexpr VirtualFs::Attr HwmonDevice::kFiles[kFileCount] = {
    {.name = "fan1_input",
     .read = [](const void* d) {
       std::optional<Rpm> rpm;
       if (static_cast<const HwmonDevice*>(d)->driver_.read_rpm(rpm) != DriverStatus::kOk ||
           !rpm.has_value()) {
         return std::string{"0"};
       }
       return std::to_string(static_cast<long>(std::lround(rpm->value())));
     }},
    {.name = "name", .read = [](const void*) { return std::string{"adt7467"}; }},
    {.name = "pwm1",
     .read_long = [](const void* d) -> long {
       DutyCycle duty;
       if (static_cast<const HwmonDevice*>(d)->driver_.read_duty(duty) != DriverStatus::kOk) {
         return 0;
       }
       return static_cast<long>(hw::Adt7467::duty_to_reg(duty));
     },
     .write_long = [](void* d, long raw) {
       if (raw < 0 || raw > 255) {
         return false;
       }
       return static_cast<HwmonDevice*>(d)->driver_.set_duty(
                  hw::Adt7467::reg_to_duty(static_cast<std::uint8_t>(raw))) == DriverStatus::kOk;
     }},
    {.name = "pwm1_enable",
     .read = [](const void*) { return std::string{"1"}; },
     .write = [](void* d, const std::string& value) {
       Adt7467Driver& driver = static_cast<HwmonDevice*>(d)->driver_;
       if (value == "1") {
         return driver.set_manual_mode() == DriverStatus::kOk;
       }
       if (value == "2") {
         return driver.set_automatic_mode() == DriverStatus::kOk;
       }
       return false;
     }},
    {.name = "temp1_input",
     .read_long = [](const void* d) {
       // Kernel convention: millidegrees Celsius.
       return to_millidegrees(static_cast<const HwmonDevice*>(d)->sensor_.last_reading());
     }},
};

HwmonDevice::HwmonDevice(VirtualFs& fs, std::string_view root, int index,
                         hw::ThermalSensor& sensor, Adt7467Driver& driver)
    : fs_(fs), sensor_(sensor), driver_(driver) {
  static_assert(VirtualFs::valid_table(kFiles));
  static_assert(kFiles[kTemp1Input].name == "temp1_input" && kFiles[kPwm1].name == "pwm1" &&
                kFiles[kPwm1Enable].name == "pwm1_enable");
  mount_ = fs_.mount(VirtualFs::device_dir(root, "/hwmon", index), kFiles, this);
}

HwmonDevice::~HwmonDevice() { fs_.unmount(mount_); }

// Controllers poll temp1_input and pwm1 every sampling tick on every node:
// the handles name our own files directly, with no path lookup.
Celsius HwmonDevice::read_temperature() const {
  return from_millidegrees(fs_.read_long(VirtualFs::handle(mount_, kTemp1Input)).value_or(0));
}

bool HwmonDevice::write_pwm(DutyCycle duty) {
  return fs_.write_long(VirtualFs::handle(mount_, kPwm1), hw::Adt7467::duty_to_reg(duty));
}

bool HwmonDevice::set_manual_mode() {
  return fs_.write(VirtualFs::handle(mount_, kPwm1Enable), "1");
}

bool HwmonDevice::set_automatic_mode() {
  return fs_.write(VirtualFs::handle(mount_, kPwm1Enable), "2");
}

}  // namespace thermctl::sysfs
