// ADT7467 dBCool remote thermal monitor / fan controller model.
//
// The paper's out-of-band actuation path runs through this Analog Devices
// part: a custom Linux driver writes PWM registers over i2c, and the chip's
// *automatic* mode implements the traditional static fan curve of Fig. 1
// (duty = PWMmin below Tmin, rising linearly to 100% at Tmax).
//
// This model implements the subset of the register map the experiments
// exercise, with the real part's conventions (8-bit duty, tach period
// counters, identification registers). It is a simplification of the full
// datasheet — enough to keep the driver ↔ chip protocol honest, not a
// cycle-accurate replica.
//
// Register map (subset):
//   0x26  TEMP_REMOTE1   measured remote-diode temperature, signed °C (RO)
//   0x28  TACH1_LOW      fan tach period counter, low byte (RO)
//   0x29  TACH1_HIGH     fan tach period counter, high byte (RO)
//   0x30  PWM1_DUTY      current duty, 0..255; writable in manual mode
//   0x38  PWM1_MAX       ceiling applied to the automatic curve, 0..255
//   0x5C  PWM1_CONFIG    bits 7:5 = behaviour (0b111 manual, 0b101 auto)
//   0x64  PWM1_MIN       minimum duty for the automatic curve, 0..255
//   0x67  TMIN_REMOTE1   automatic-curve Tmin, signed °C
//   0x68  TRANGE_REMOTE1 automatic-curve range (Tmax - Tmin), °C
//   0x3D  DEVICE_ID      0x68
//   0x3E  COMPANY_ID     0x41 (Analog Devices)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/units.hpp"
#include "hw/i2c.hpp"

namespace thermctl::hw {

/// The chips' latched measurements and PWM-pin mirror, one row per chip:
/// what FleetSweep's measurement-side passes read and write without touching
/// the register objects. A fresh row is the power-on latch: TEMP_REMOTE1
/// 25 °C, tach 0xFFFF (stalled), no RPM latched yet (-1), and the pin at the
/// automatic curve's PWM1_MIN.
struct ChipColumns {
  explicit ChipColumns(std::size_t n);

  std::vector<std::int8_t> temp_remote1;  // °C
  std::vector<std::uint16_t> tach1;       // tach period counter
  std::vector<double> last_measured_rpm;  // skip tach recompute when unchanged
  /// Mirror of reg_to_duty(PWM1_DUTY).percent(), refreshed whenever the duty
  /// register changes (auto-curve refresh or manual write).
  std::vector<double> output_duty_pct;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) {
    return std::tie(g.temp_remote1, g.tach1, g.last_measured_rpm, g.output_duty_pct);
  }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }
};

class Adt7467 : public I2cSlave {
 public:
  // Register addresses (public so drivers and tests share one definition).
  static constexpr std::uint8_t kRegTempRemote1 = 0x26;
  static constexpr std::uint8_t kRegTach1Low = 0x28;
  static constexpr std::uint8_t kRegTach1High = 0x29;
  static constexpr std::uint8_t kRegPwm1Duty = 0x30;
  static constexpr std::uint8_t kRegPwm1Max = 0x38;
  static constexpr std::uint8_t kRegPwm1Config = 0x5C;
  static constexpr std::uint8_t kRegPwm1Min = 0x64;
  static constexpr std::uint8_t kRegTminRemote1 = 0x67;
  static constexpr std::uint8_t kRegTrangeRemote1 = 0x68;
  static constexpr std::uint8_t kRegDeviceId = 0x3D;
  static constexpr std::uint8_t kRegCompanyId = 0x3E;

  static constexpr std::uint8_t kDeviceId = 0x68;
  static constexpr std::uint8_t kCompanyId = 0x41;

  static constexpr std::uint8_t kBehaviourManual = 0b111;
  static constexpr std::uint8_t kBehaviourAutoRemote1 = 0b101;

  /// Datasheet tach convention: counter = 5.4e6 / RPM; 0xFFFF = stalled.
  static constexpr double kTachClock = 5.4e6;

  /// Power-on PWM1_MIN: ~10% of 255 (PWMmin in the paper).
  static constexpr std::uint8_t kPowerOnPwm1Min = 26;

  /// The register file, with its latched measurements and PWM-pin mirror in
  /// row `slot` of `cols`.
  Adt7467(ChipColumns& cols, std::size_t slot);

  // One chip per row: a copy would be a second writer of the same latch.
  Adt7467(const Adt7467&) = delete;
  Adt7467& operator=(const Adt7467&) = delete;

  // --- physical-side interface (wired by the node model, not by drivers) ---

  /// Latches the remote diode temperature measurement.
  void set_measured_temperature(Celsius t);

  /// Latches the fan tach feedback.
  void set_measured_rpm(Rpm rpm) {
    latch_tach(rpm.value(), cols_.last_measured_rpm[slot_], cols_.tach1[slot_]);
  }

  // The measurement side's arithmetic on one chip's cells: the only copy.
  // The methods above and FleetSweep's passes run it.

  /// TEMP_REMOTE1's encoding of `t`: clamped, rounded whole degrees.
  [[nodiscard]] static std::int8_t temp_to_reg(double t) {
    return static_cast<std::int8_t>(std::lround(std::clamp(t, -128.0, 127.0)));
  }

  /// Latches the tach period counter for `rpm` into `tach1`, unless `rpm`
  /// is the RPM last latched (kept in `last_rpm`).
  static void latch_tach(double rpm, double& last_rpm, std::uint16_t& tach1) {
    if (rpm == last_rpm) {
      return;  // rotor at steady state: the latched tach period is current
    }
    last_rpm = rpm;
    if (rpm < 100.0) {
      tach1 = 0xFFFF;  // stalled / too slow to measure
    } else {
      const double count = kTachClock / rpm;
      tach1 = static_cast<std::uint16_t>(std::min(count, 65534.0));
    }
  }

  /// Duty the chip is currently driving on its PWM output pin.
  [[nodiscard]] DutyCycle output_duty() const;

  /// True when bits 7:5 of PWM1_CONFIG select manual behaviour.
  [[nodiscard]] bool manual_mode() const;

  /// The automatic-mode curve evaluated at `t` (Fig. 1 of the paper):
  /// duty = PWM1_MIN below Tmin, linear to 100% at Tmin + Trange.
  [[nodiscard]] DutyCycle auto_curve(Celsius t) const;

  // --- I2cSlave protocol ---
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override;
  bool write_register(std::uint8_t reg, std::uint8_t value) override;

  /// Converts a percentage duty to the 8-bit register encoding and back.
  [[nodiscard]] static std::uint8_t duty_to_reg(DutyCycle d);
  [[nodiscard]] static DutyCycle reg_to_duty(std::uint8_t v);

 private:
  void refresh_output();
  void refresh_duty_mirror() {
    cols_.output_duty_pct[slot_] = reg_to_duty(pwm1_duty_).percent();
  }

  ChipColumns& cols_;
  std::size_t slot_;
  std::uint8_t pwm1_duty_ = 0;      // current duty register
  std::uint8_t pwm1_max_ = 0xFF;    // automatic-curve ceiling
  std::uint8_t pwm1_config_ = static_cast<std::uint8_t>(kBehaviourAutoRemote1 << 5);
  std::uint8_t pwm1_min_ = kPowerOnPwm1Min;
  std::int8_t tmin_remote1_ = 38;   // paper platform: Tmin = 38 °C
  std::uint8_t trange_remote1_ = 44;  // paper platform: Tmax = 82 °C
};

}  // namespace thermctl::hw
