#include "core/fan_policy.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::core {

namespace {

std::vector<double> duty_modes(const FanControlConfig& config) {
  THERMCTL_ASSERT(config.max_duty.percent() > config.min_duty.percent(),
                  "max duty must exceed min duty");
  // "we discretize the continuous fan speed into ... distinct speeds from
  // duty cycle of 1% to 100%" — integer percent steps, ascending
  // effectiveness.
  std::vector<double> modes;
  const int lo = static_cast<int>(std::lround(config.min_duty.percent()));
  const int hi = static_cast<int>(std::lround(config.max_duty.percent()));
  modes.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (int d = lo; d <= hi; ++d) {
    modes.push_back(static_cast<double>(d));
  }
  return modes;
}

}  // namespace

FanFamily::FanFamily(const FanControlConfig& cfg)
    : config(cfg),
      selector(ModeSelectorConfig{}, cfg.array_size),
      modes(duty_modes(cfg)),
      array(modes, cfg.array_size, cfg.pp) {
  THERMCTL_ASSERT(modes.size() <= DecisionLog::kMaxModes,
                  "a family lists at most 256 modes");
}

bool FanFamily::admits(FanControlConfig other) const {
  other.pp = config.pp;
  return other == config;
}

FanTechnique::FanTechnique(sysfs::HwmonDevice& hwmon, const FanControlConfig& config)
    : FanTechnique(hwmon, std::make_shared<const FanFamily>(config), config.pp) {}

FanTechnique::FanTechnique(sysfs::HwmonDevice& hwmon, std::shared_ptr<const FanFamily> family,
                           PolicyParam pp)
    : family_(std::move(family)), array_(family_->array), hwmon_(hwmon) {
  if (pp != array_.policy()) {
    array_.set_policy(pp);
  }
}

DutyCycle FanTechnique::current_duty() const {
  return DutyCycle{array_.mode(index_)};
}

void FanTechnique::set_policy(PolicyParam pp, TwoLevelWindow& window) {
  array_.set_policy(pp);
  // Old history predicts behaviour under the old fill; drop it.
  window.reset();
}

void FanTechnique::take_over() {
  // Take over from the BIOS/auto mode: claim manual PWM control, then start
  // at the bottom of the array; the window walks the index up as the
  // workload heats the die.
  index_ = 0;
  if (hwmon_.set_manual_mode()) {
    hwmon_.write_pwm(DutyCycle{array_.least_effective()});
  }
  initialized_ = true;
}

void FanTechnique::fail_safe(SimTime now, bool failed, TwoLevelWindow& window) {
  if (failed) {
    if (!failsafe_) {
      failsafe_ = true;
      failsafe_applied_ = false;
      ++failsafe_entries_;
      window.reset();  // history under a dead sensor predicts nothing
      THERMCTL_TRACE_EMIT(trace_,
                          (obs::TraceEvent{.type = obs::TraceEventType::kFailsafeEnter,
                                           .subsystem = obs::TraceSubsystem::kFan,
                                           .a = array_.most_effective()}));
      THERMCTL_LOG_DEBUG("fanctl", "t=%.2fs sensor failed; fail-safe cooling", now.seconds());
    }
    // Blind on temperature ⇒ cool as hard as the array allows. Keep
    // retrying the write: the sensor fault may coincide with a bus fault,
    // and the whole point is to reach max cooling as soon as the bus lets
    // us.
    if (!failsafe_applied_ && hwmon_.write_pwm(DutyCycle{array_.most_effective()})) {
      failsafe_applied_ = true;
    }
    return;
  }
  // Recovered: resume normal control from the fail-safe operating point;
  // the window machinery walks the duty back down as readings warrant.
  failsafe_ = false;
  ++failsafe_exits_;
  index_ = array_.size() - 1;
  window.reset();
  THERMCTL_TRACE_EMIT(trace_, (obs::TraceEvent{.type = obs::TraceEventType::kFailsafeExit,
                                               .subsystem = obs::TraceSubsystem::kFan,
                                               .i0 = static_cast<std::int64_t>(index_)}));
  THERMCTL_LOG_DEBUG("fanctl", "t=%.2fs sensor recovered; resuming control", now.seconds());
}

void FanTechnique::act(SimTime now, const WindowRound& round) {
  THERMCTL_TRACE_EMIT(
      trace_,
      (obs::TraceEvent{.type = obs::TraceEventType::kWindowRound,
                       .subsystem = obs::TraceSubsystem::kFan,
                       .flags = round.level2_valid ? obs::kTraceFlagLevel2Valid : obs::kTraceFlagNone,
                       .a = round.level1_average.value(),
                       .b = round.level1_delta.value(),
                       .c = round.level2_delta.value()}));

  const ModeDecision decision = family_->selector.decide(index_, round);
  THERMCTL_TRACE_EMIT(trace_,
                      (obs::TraceEvent{.type = obs::TraceEventType::kModeDecision,
                                       .subsystem = obs::TraceSubsystem::kFan,
                                       .flags = (decision.changed ? obs::kTraceFlagChanged : 0u) |
                                                (decision.used_level2 ? obs::kTraceFlagUsedLevel2 : 0u) |
                                                (decision.clamped ? obs::kTraceFlagClamped : 0u),
                                       .i0 = static_cast<std::int64_t>(index_),
                                       .i1 = static_cast<std::int64_t>(decision.target),
                                       .a = decision.raw_target,
                                       .b = decision.delta_used.value(),
                                       .c = array_.mode(decision.target)}));
  if (!decision.changed) {
    return;
  }

  if (array_.mode(decision.target) == array_.mode(index_)) {
    // Distinct cells can hold the same duty (Eq. (1) duplicates); track the
    // index without touching the hardware.
    index_ = decision.target;
    return;
  }
  retarget(now, decision);
}

void FanTechnique::retarget(SimTime now, const ModeDecision& decision) {
  const double from = array_.mode(index_);
  const double to = array_.mode(decision.target);
  const bool write_ok = hwmon_.write_pwm(DutyCycle{to});
  THERMCTL_TRACE_EMIT(trace_,
                      (obs::TraceEvent{.type = obs::TraceEventType::kFanRetarget,
                                       .subsystem = obs::TraceSubsystem::kFan,
                                       .flags = (write_ok ? obs::kTraceFlagWriteOk : 0u) |
                                                (decision.used_level2 ? obs::kTraceFlagUsedLevel2 : 0u),
                                       .i0 = static_cast<std::int64_t>(decision.target),
                                       .a = from,
                                       .b = to}));
  if (!write_ok) {
    // Commit the index only once the duty actually reached the chip —
    // otherwise a bus fault would desynchronize the controller's belief
    // from the hardware.
    return;
  }
  family_->log.append(decisions_, now, array_.mode_index(index_),
                      array_.mode_index(decision.target),
                      decision.used_level2 ? DecisionLog::kLevel2 : std::uint8_t{0});
  index_ = decision.target;
  THERMCTL_LOG_DEBUG("fanctl", "t=%.2fs duty %.0f%% -> %.0f%% (%s)", now.seconds(), from, to,
                     decision.used_level2 ? "gradual" : "sudden");
}

StaticFanPolicy::StaticFanPolicy(sysfs::Adt7467Driver& driver, Curve curve, DutyCycle max_duty)
    : driver_(driver), curve_(curve), max_duty_(max_duty) {
  THERMCTL_ASSERT(curve.tmax > curve.tmin, "curve Tmax must exceed Tmin");
}

bool StaticFanPolicy::apply() {
  using sysfs::DriverStatus;
  if (driver_.configure_auto_curve(curve_.pwm_min, curve_.tmin, curve_.tmax - curve_.tmin) !=
      DriverStatus::kOk) {
    return false;
  }
  if (driver_.set_max_duty(max_duty_) != DriverStatus::kOk) {
    return false;
  }
  return driver_.set_automatic_mode() == DriverStatus::kOk;
}

ConstantFanPolicy::ConstantFanPolicy(sysfs::HwmonDevice& hwmon, DutyCycle duty)
    : hwmon_(hwmon), duty_(duty) {}

bool ConstantFanPolicy::apply() { return hwmon_.set_manual_mode() && hwmon_.write_pwm(duty_); }

}  // namespace thermctl::core
