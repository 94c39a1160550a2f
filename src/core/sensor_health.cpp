#include "core/sensor_health.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::core {

namespace {

/// No observation for this long ⇒ the held value is stale.
constexpr Seconds kStaleDeadline{2.0};

}  // namespace

SensorHealthMonitor::SensorHealthMonitor(SensorHealthConfig config) : config_(config) {
  THERMCTL_ASSERT(config_.max_plausible > config_.min_plausible,
                  "plausible band must be non-empty");
  THERMCTL_ASSERT(config_.recovery_samples >= 1, "recovery needs at least one good sample");
}

SensorState SensorHealthMonitor::observe(SimTime now, Celsius reading) {
  ++stats_.samples;
  last_observe_time_ = now;

  const double v = reading.value();
  SensorState state = SensorState::kOk;
  if (!std::isfinite(v)) {
    state = SensorState::kNonFinite;
  } else if (v < config_.min_plausible.value() || v > config_.max_plausible.value()) {
    state = SensorState::kOutOfRange;
  } else {
    // Plausible value: extend or restart the identical-reading run. The
    // comparison is bitwise-exact on purpose — a healthy quantized sensor
    // jitters between adjacent codes, a frozen register does not.
    identical_run_ = (last_raw_.has_value() && *last_raw_ == v) ? identical_run_ + 1 : 1;
    last_raw_ = v;
    if (config_.stuck_samples > 0 && identical_run_ >= config_.stuck_samples) {
      if (identical_run_ == config_.stuck_samples) {
        ++stats_.stuck_detections;
      }
      state = SensorState::kStuck;
    }
  }

  switch (state) {
    case SensorState::kNonFinite:
    case SensorState::kOutOfRange:
      ++stats_.rejected;
      ++reject_run_;
      good_run_ = 0;
      // Garbage interrupts any identical run: the next plausible value
      // starts a fresh one.
      last_raw_.reset();
      identical_run_ = 0;
      break;
    case SensorState::kStuck:
      // The value is plausible but untrustworthy: neither good nor a reject.
      reject_run_ = 0;
      good_run_ = 0;
      break;
    case SensorState::kOk:
      reject_run_ = 0;
      ++good_run_;
      last_good_ = reading;
      last_good_time_ = now;
      break;
  }

  const bool confirmed =
      state == SensorState::kStuck ||
      (config_.reject_samples > 0 && reject_run_ >= config_.reject_samples);
  if (!failed_ && confirmed) {
    failed_ = true;
    ++stats_.failures;
  } else if (failed_ && good_run_ >= config_.recovery_samples) {
    failed_ = false;
    ++stats_.recoveries;
  }
  return state;
}

Seconds SensorHealthMonitor::last_good_age(SimTime now) const {
  THERMCTL_ASSERT(last_good_time_.has_value(), "no good reading yet");
  return now - *last_good_time_;
}

bool SensorHealthMonitor::stale(SimTime now) const {
  if (!last_observe_time_.has_value()) {
    return true;
  }
  return (now - *last_observe_time_).value() > kStaleDeadline.value();
}

void SensorHealthMonitor::reset() {
  last_raw_.reset();
  identical_run_ = 0;
  reject_run_ = 0;
  good_run_ = 0;
  failed_ = false;
  last_good_.reset();
  last_good_time_.reset();
  last_observe_time_.reset();
}

SensorGate::SensorGate(bool fault_aware, const SensorHealthConfig& config)
    : state_(fault_aware ? std::make_unique<State>(State{SensorHealthMonitor{config}}) : nullptr) {}

SensorVerdict SensorGate::classify(SimTime now, Celsius& reading, obs::TraceRing* trace,
                                   obs::TraceSubsystem subsystem) {
  const SensorState state = state_->monitor.observe(now, reading);
  const bool sample_ok = state == SensorState::kOk;
  if (!sample_ok || !state_->last_sample_ok) {
    THERMCTL_TRACE_EMIT(trace, (obs::TraceEvent{.type = obs::TraceEventType::kSensorClassified,
                                                .subsystem = subsystem,
                                                .i0 = static_cast<std::int64_t>(state),
                                                .a = reading.value()}));
  }
  state_->last_sample_ok = sample_ok;
  if (state_->monitor.failed()) {
    return {.push = false, .failed = true};
  }
  if (!sample_ok) {
    // Isolated bad sample below the failure threshold: bridge with the last
    // good reading rather than steering on garbage.
    const std::optional<Celsius> good = state_->monitor.last_good();
    if (!good.has_value()) {
      return {.push = false};
    }
    reading = *good;
  }
  return {};
}

}  // namespace thermctl::core
