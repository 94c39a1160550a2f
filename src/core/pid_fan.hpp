// PID fan control — the "formal control techniques" baseline (§2: Wu/Juang's
// formal DVFS scaling, Lefurgy's closed-loop server power control, Wang's
// MIMO cluster controller all come from this school).
//
// A classical discrete PI(D) loop holding the die at a temperature setpoint
// by actuating PWM duty:
//
//   e_k   = T_k − T_set
//   u_k   = Kp·e_k + Ki·Σe·dt + Kd·(e_k − e_{k-1})/dt
//   duty  = clamp(u_k, min_duty, max_duty)
//
// with conditional anti-windup (the integrator freezes while the actuator is
// saturated). The contrast with the paper's controller: PID regulates to a
// *setpoint* and must be gain-tuned per platform; the thermal-control-array
// scheme regulates *variation* anywhere in the band and is tuned by a single
// semantic parameter. The baseline bench quantifies both behaviours.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {

struct PidFanConfig {
  Celsius setpoint{50.0};
  double ki = 0.4;    // duty-% per degC-second
  double kd = 4.0;    // duty-% per (degC/second)
  DutyCycle min_duty{1.0};
  DutyCycle max_duty{100.0};
  /// Controller period (should match the sensor sampling period).
  Seconds period{0.25};
};

class PidFanController {
 public:
  PidFanController(sysfs::HwmonDevice& hwmon, PidFanConfig config);

  void on_sample(SimTime now);

  [[nodiscard]] DutyCycle current_duty() const { return duty_; }
  [[nodiscard]] double integrator() const { return integral_; }
  [[nodiscard]] std::uint64_t actuations() const { return actuations_; }

  /// Clears all controller state (integrator, derivative history, cached
  /// duty, actuation count). The hardware is treated as unknown afterwards:
  /// the next on_sample() re-asserts manual mode and always writes PWM.
  void reset();

 private:
  sysfs::HwmonDevice& hwmon_;
  PidFanConfig config_;
  double integral_ = 0.0;
  double prev_error_ = 0.0;
  bool primed_ = false;
  bool initialized_ = false;
  /// False until a write has confirmed the chip's duty (and again after
  /// reset()): while unknown, the write-suppression shortcut is disabled.
  bool duty_known_ = false;
  DutyCycle duty_{0.0};
  std::uint64_t actuations_ = 0;
};

}  // namespace thermctl::core
