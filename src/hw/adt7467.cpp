#include "hw/adt7467.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace thermctl::hw {

ChipColumns::ChipColumns(std::size_t n)
    : temp_remote1(n, 25),
      tach1(n, 0xFFFF),
      last_measured_rpm(n, -1.0),
      output_duty_pct(n, Adt7467::reg_to_duty(Adt7467::kPowerOnPwm1Min).percent()) {}

Adt7467::Adt7467(ChipColumns& cols, std::size_t slot) : cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.tach1.size(), "column slot out of range");
  refresh_output();
}

std::uint8_t Adt7467::duty_to_reg(DutyCycle d) {
  return static_cast<std::uint8_t>(std::lround(d.fraction() * 255.0));
}

DutyCycle Adt7467::reg_to_duty(std::uint8_t v) {
  return DutyCycle{static_cast<double>(v) / 255.0 * 100.0};
}

void Adt7467::set_measured_temperature(Celsius t) {
  const std::int8_t reg = temp_to_reg(t.value());
  if (reg == cols_.temp_remote1[slot_]) {
    return;  // sub-degree drift doesn't move the register or the auto curve
  }
  cols_.temp_remote1[slot_] = reg;
  refresh_output();
}

bool Adt7467::manual_mode() const { return (pwm1_config_ >> 5) == kBehaviourManual; }

DutyCycle Adt7467::auto_curve(Celsius t) const {
  const double tmin = static_cast<double>(tmin_remote1_);
  const double trange = std::max(1.0, static_cast<double>(trange_remote1_));
  const double duty_min = reg_to_duty(pwm1_min_).percent();
  if (t.value() <= tmin) {
    return DutyCycle{duty_min};
  }
  const double frac = std::min(1.0, (t.value() - tmin) / trange);
  return DutyCycle{duty_min + frac * (100.0 - duty_min)};
}

void Adt7467::refresh_output() {
  if (!manual_mode()) {
    pwm1_duty_ = std::min(
        duty_to_reg(auto_curve(Celsius{static_cast<double>(cols_.temp_remote1[slot_])})),
        pwm1_max_);
  }
  refresh_duty_mirror();
}

DutyCycle Adt7467::output_duty() const { return reg_to_duty(pwm1_duty_); }

std::optional<std::uint8_t> Adt7467::read_register(std::uint8_t reg) {
  switch (reg) {
    case kRegTempRemote1:
      return static_cast<std::uint8_t>(cols_.temp_remote1[slot_]);
    case kRegTach1Low:
      return static_cast<std::uint8_t>(cols_.tach1[slot_] & 0xFF);
    case kRegTach1High:
      return static_cast<std::uint8_t>(cols_.tach1[slot_] >> 8);
    case kRegPwm1Duty:
      return pwm1_duty_;
    case kRegPwm1Max:
      return pwm1_max_;
    case kRegPwm1Config:
      return pwm1_config_;
    case kRegPwm1Min:
      return pwm1_min_;
    case kRegTminRemote1:
      return static_cast<std::uint8_t>(tmin_remote1_);
    case kRegTrangeRemote1:
      return trange_remote1_;
    case kRegDeviceId:
      return kDeviceId;
    case kRegCompanyId:
      return kCompanyId;
    default:
      return std::nullopt;  // register NAK
  }
}

bool Adt7467::write_register(std::uint8_t reg, std::uint8_t value) {
  switch (reg) {
    case kRegPwm1Duty:
      // Writable only under manual behaviour; the real part ignores writes in
      // automatic mode — we NAK so driver bugs surface loudly.
      if (!manual_mode()) {
        return false;
      }
      pwm1_duty_ = value;
      refresh_duty_mirror();
      return true;
    case kRegPwm1Max:
      pwm1_max_ = value;
      refresh_output();
      return true;
    case kRegPwm1Config:
      pwm1_config_ = value;
      refresh_output();
      return true;
    case kRegPwm1Min:
      pwm1_min_ = value;
      refresh_output();
      return true;
    case kRegTminRemote1:
      tmin_remote1_ = static_cast<std::int8_t>(value);
      refresh_output();
      return true;
    case kRegTrangeRemote1:
      trange_remote1_ = value;
      refresh_output();
      return true;
    default:
      return false;  // read-only or unknown register
  }
}

}  // namespace thermctl::hw
