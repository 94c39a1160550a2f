#include "core/predictive_fan.hpp"

#include <cmath>

#include "common/log.hpp"

namespace thermctl::core {

PredictiveFanController::PredictiveFanController(sysfs::HwmonDevice& hwmon,
                                                 sysfs::RaplDomain& rapl,
                                                 PredictiveFanConfig config)
    : hwmon_(hwmon),
      rapl_(rapl),
      config_(config),
      family_(config.base),
      window_(config.base.window) {}

void PredictiveFanController::on_sample(SimTime now) {
  const Celsius reading = hwmon_.read_temperature();

  if (!initialized_) {
    index_ = 0;
    if (hwmon_.set_manual_mode()) {
      hwmon_.write_pwm(DutyCycle{family_.array.least_effective()});
    }
    last_energy_uj_ = rapl_.energy_uj();
    last_round_time_ = now;
    initialized_ = true;
  }

  const auto round = window_.add_sample(reading);
  if (!round.has_value()) {
    return;
  }

  // Average package power over the just-completed round, from RAPL deltas.
  // The energy counter wraps (kernel max_energy_range_uj semantics): a raw
  // `energy - last` subtraction across the wrap would read as an enormous
  // power spike and the feed-forward term would slam the fan to its most
  // effective mode on pure fiction.
  const std::uint64_t energy = rapl_.energy_uj();
  const double span_s = (now - last_round_time_).value();
  const std::uint64_t delta_uj =
      sysfs::RaplDomain::energy_delta_uj(last_energy_uj_, energy, rapl_.max_energy_range_uj());
  const double power_w = span_s > 0.0 ? static_cast<double>(delta_uj) * 1e-6 / span_s : 0.0;
  last_energy_uj_ = energy;
  last_round_time_ = now;

  // Clamp: even wrap-corrected, a counter glitch (domain reset, torn read)
  // can yield an implausible delta. Discard the sample instead of steering
  // on it — the power history simply skips a round.
  const bool power_valid = span_s > 0.0 && power_w <= config_.max_power_w;

  // Feed-forward: the round-over-round power change, converted to the
  // degrees it will eventually produce.
  double feedforward_dt = 0.0;
  if (power_valid) {
    if (last_round_power_w_ >= 0.0) {
      const double dp = power_w - last_round_power_w_;
      if (std::abs(dp) > config_.power_deadband_w) {
        feedforward_dt = config_.power_gain * dp * config_.r_thermal;
      }
    }
    last_round_power_w_ = power_w;
  }

  WindowRound augmented = *round;
  augmented.level1_delta = augmented.level1_delta + CelsiusDelta{feedforward_dt};

  const ModeDecision decision = family_.selector.decide(index_, augmented);
  // What history alone would have decided, for attribution.
  const bool history_would_move = family_.selector.decide(index_, *round).changed;
  if (!decision.changed) {
    return;
  }
  const double from = family_.array.mode(index_);
  const double to = family_.array.mode(decision.target);
  // Commit the index only once the duty reached the chip (an Eq. (1)
  // duplicate needs no write), as FanTechnique::act does: after a failed
  // write the controller must still believe the duty the chip holds.
  if (to != from && !hwmon_.write_pwm(DutyCycle{to})) {
    return;
  }
  index_ = decision.target;
  if (to == from) {
    return;
  }
  ++retargets_;
  if (feedforward_dt != 0.0 && !history_would_move) {
    ++feedforward_;  // the counter term alone caused this move
  }
  events_.push_back(FanEvent{now.seconds(), from, to, decision.used_level2});
  THERMCTL_LOG_DEBUG("predfan", "t=%.2fs duty %.0f%% -> %.0f%% (ff=%.2f degC)", now.seconds(),
                     from, to, feedforward_dt);
}

}  // namespace thermctl::core
