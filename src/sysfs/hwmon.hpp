// hwmon sysfs binding (the lm-sensors surface).
//
// The paper samples CPU temperature "through lm-sensors"; lm-sensors reads
// the hwmon class tree. This binding publishes a thermal sensor, fan tach and
// PWM control as hwmon attributes with the kernel's conventions: temperatures
// in millidegrees (`temp1_input`), fan speed in RPM (`fan1_input`), PWM as
// 0–255 (`pwm1`) with `pwm1_enable` selecting automatic (2) or manual (1)
// mode.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/units.hpp"
#include "hw/thermal_sensor.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {

class HwmonDevice {
 public:
  /// Mounts `<root>/hwmon<index>` backed by `sensor` (temperature) and
  /// `driver` (fan/PWM path). Neither is owned.
  HwmonDevice(VirtualFs& fs, std::string_view root, int index, hw::ThermalSensor& sensor,
              Adt7467Driver& driver);
  ~HwmonDevice();

  HwmonDevice(const HwmonDevice&) = delete;
  HwmonDevice& operator=(const HwmonDevice&) = delete;

  /// Reads temp1_input and converts from millidegrees.
  [[nodiscard]] Celsius read_temperature() const;

  /// Writes pwm1 (0-255 encoding) through the sysfs path.
  bool write_pwm(DutyCycle duty);

  /// pwm1_enable = 1 (manual) / 2 (automatic), the lm-sensors convention.
  bool set_manual_mode();
  bool set_automatic_mode();

  // The temp1_input encoding: lround to long millidegrees, not truncation.
  // ControlBank quantizes its batched reads through the same pair, so they
  // cannot drift from this attribute.
  static long to_millidegrees(Celsius t) { return std::lround(t.value() * 1000.0); }
  static Celsius from_millidegrees(long milli) {
    return Celsius{static_cast<double>(milli) / 1000.0};
  }

 private:
  // The hwmon directory's files in name order; the enum indexes kFiles.
  enum File : std::uint8_t { kFan1Input, kName, kPwm1, kPwm1Enable, kTemp1Input, kFileCount };
  static const VirtualFs::Attr kFiles[kFileCount];

  VirtualFs& fs_;
  hw::ThermalSensor& sensor_;
  Adt7467Driver& driver_;
  VirtualFs::Mount mount_;
};

}  // namespace thermctl::sysfs
