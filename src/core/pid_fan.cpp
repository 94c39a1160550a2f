#include "core/pid_fan.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace thermctl::core {

namespace {

/// Proportional gain (duty-% per degC).
constexpr double kKp = 8.0;

}  // namespace

PidFanController::PidFanController(sysfs::HwmonDevice& hwmon, PidFanConfig config)
    : hwmon_(hwmon), config_(config) {
  THERMCTL_ASSERT(config_.period.value() > 0.0, "controller period must be positive");
  THERMCTL_ASSERT(config_.max_duty.percent() > config_.min_duty.percent(),
                  "duty range inverted");
}

void PidFanController::reset() {
  integral_ = 0.0;
  prev_error_ = 0.0;
  primed_ = false;
  // After a reset the hardware state is unknown: re-assert manual mode on
  // the next tick and force the next PWM write even if the computed target
  // matches the duty cached from before the reset.
  initialized_ = false;
  duty_known_ = false;
  duty_ = DutyCycle{0.0};
  actuations_ = 0;
}

void PidFanController::on_sample(SimTime now) {
  (void)now;
  if (!initialized_) {
    hwmon_.set_manual_mode();
    initialized_ = true;
  }

  const double dt = config_.period.value();
  const double error = hwmon_.read_temperature().value() - config_.setpoint.value();
  const double derivative = primed_ ? (error - prev_error_) / dt : 0.0;
  prev_error_ = error;
  primed_ = true;

  const double raw = kKp * error + config_.ki * integral_ + config_.kd * derivative;
  const double lo = config_.min_duty.percent();
  const double hi = config_.max_duty.percent();
  const double clamped = std::clamp(raw, lo, hi);

  // Conditional anti-windup: only integrate when not pushing further into
  // saturation.
  const bool saturated_high = raw >= hi && error > 0.0;
  const bool saturated_low = raw <= lo && error < 0.0;
  if (!saturated_high && !saturated_low) {
    integral_ += error * dt;
  }

  const DutyCycle target{clamped};
  if (!duty_known_ || std::abs(target.percent() - duty_.percent()) > 1e-9) {
    if (hwmon_.write_pwm(target)) {
      duty_ = target;
      duty_known_ = true;
      ++actuations_;
    }
  }
}

}  // namespace thermctl::core
