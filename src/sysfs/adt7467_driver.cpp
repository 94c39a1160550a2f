#include "sysfs/adt7467_driver.hpp"

#include <cmath>

namespace thermctl::sysfs {

using hw::Adt7467;
using hw::I2cStatus;

Adt7467Driver::Adt7467Driver(hw::I2cBus& bus, std::uint8_t address, hw::I2cRetryConfig retry)
    : master_(bus, address, retry) {}

DriverStatus Adt7467Driver::read_reg(std::uint8_t reg, std::uint8_t& out) {
  return master_.read_byte_data(reg, out) == I2cStatus::kOk ? DriverStatus::kOk
                                                            : DriverStatus::kIoError;
}

DriverStatus Adt7467Driver::write_reg(std::uint8_t reg, std::uint8_t value) {
  return master_.write_byte_data(reg, value) == I2cStatus::kOk ? DriverStatus::kOk
                                                               : DriverStatus::kIoError;
}

DriverStatus Adt7467Driver::probe() {
  std::uint8_t device_id = 0;
  std::uint8_t company_id = 0;
  if (read_reg(Adt7467::kRegDeviceId, device_id) != DriverStatus::kOk ||
      read_reg(Adt7467::kRegCompanyId, company_id) != DriverStatus::kOk) {
    return DriverStatus::kProbeFailed;
  }
  if (device_id != Adt7467::kDeviceId || company_id != Adt7467::kCompanyId) {
    return DriverStatus::kProbeFailed;
  }
  if (set_manual_mode() != DriverStatus::kOk) {
    return DriverStatus::kProbeFailed;
  }
  probed_ = true;
  return DriverStatus::kOk;
}

DriverStatus Adt7467Driver::set_duty(DutyCycle duty) {
  if (!probed_) {
    return DriverStatus::kProbeFailed;
  }
  return write_reg(Adt7467::kRegPwm1Duty, Adt7467::duty_to_reg(duty));
}

DriverStatus Adt7467Driver::read_duty(DutyCycle& out) {
  std::uint8_t raw = 0;
  const DriverStatus st = read_reg(Adt7467::kRegPwm1Duty, raw);
  if (st == DriverStatus::kOk) {
    out = Adt7467::reg_to_duty(raw);
  }
  return st;
}

DriverStatus Adt7467Driver::read_temperature(Celsius& out) {
  std::uint8_t raw = 0;
  const DriverStatus st = read_reg(Adt7467::kRegTempRemote1, raw);
  if (st == DriverStatus::kOk) {
    out = Celsius{static_cast<double>(static_cast<std::int8_t>(raw))};
  }
  return st;
}

DriverStatus Adt7467Driver::read_rpm(std::optional<Rpm>& out) {
  std::uint8_t lo = 0;
  std::uint8_t hi = 0;
  if (auto st = read_reg(Adt7467::kRegTach1Low, lo); st != DriverStatus::kOk) {
    return st;
  }
  if (auto st = read_reg(Adt7467::kRegTach1High, hi); st != DriverStatus::kOk) {
    return st;
  }
  const std::uint16_t count = static_cast<std::uint16_t>((hi << 8) | lo);
  if (count == 0xFFFF || count == 0) {
    out = std::nullopt;  // stalled
  } else {
    out = Rpm{Adt7467::kTachClock / static_cast<double>(count)};
  }
  return DriverStatus::kOk;
}

DriverStatus Adt7467Driver::set_automatic_mode() {
  return write_reg(Adt7467::kRegPwm1Config,
                   static_cast<std::uint8_t>(Adt7467::kBehaviourAutoRemote1 << 5));
}

DriverStatus Adt7467Driver::set_manual_mode() {
  return write_reg(Adt7467::kRegPwm1Config,
                   static_cast<std::uint8_t>(Adt7467::kBehaviourManual << 5));
}

DriverStatus Adt7467Driver::configure_auto_curve(DutyCycle pwm_min, Celsius tmin,
                                                 CelsiusDelta trange) {
  if (auto st = write_reg(Adt7467::kRegPwm1Min, Adt7467::duty_to_reg(pwm_min));
      st != DriverStatus::kOk) {
    return st;
  }
  if (auto st = write_reg(Adt7467::kRegTminRemote1,
                          static_cast<std::uint8_t>(
                              static_cast<std::int8_t>(std::lround(tmin.value()))));
      st != DriverStatus::kOk) {
    return st;
  }
  return write_reg(Adt7467::kRegTrangeRemote1,
                   static_cast<std::uint8_t>(std::lround(trange.value())));
}

DriverStatus Adt7467Driver::set_max_duty(DutyCycle max_duty) {
  return write_reg(Adt7467::kRegPwm1Max, Adt7467::duty_to_reg(max_duty));
}

}  // namespace thermctl::sysfs
