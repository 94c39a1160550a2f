#include "core/predictive_fan.hpp"

#include <cmath>

namespace thermctl::core {

PredictiveFanController::PredictiveFanController(sysfs::HwmonDevice& hwmon,
                                                 sysfs::RaplDomain& rapl,
                                                 const PredictiveFanConfig& config)
    : rapl_(rapl), config_(config), fan_(hwmon, config.base), window_(config.base.window) {}

void PredictiveFanController::on_sample(SimTime now) {
  const Celsius reading = fan_.read_temperature();
  fan_.begin(now);  // takes the fan over on the first tick
  if (!last_round_time_.has_value()) {
    last_energy_uj_ = rapl_.energy_uj();
    last_round_time_ = now;
  }
  const auto round = window_.add_sample(reading);
  if (!round.has_value()) {
    return;
  }
  const double feedforward_dt = feedforward(now);
  WindowRound augmented = *round;
  augmented.level1_delta = augmented.level1_delta + CelsiusDelta{feedforward_dt};

  // What history alone would have decided, for attribution.
  const bool history_would_move =
      fan_.family().selector.decide(fan_.current_index(), *round).changed;
  const std::uint64_t retargets = fan_.retarget_count();
  fan_.act(now, augmented);
  if (fan_.retarget_count() != retargets && feedforward_dt != 0.0 && !history_would_move) {
    ++feedforward_;  // the counter term alone caused this move
  }
}

double PredictiveFanController::feedforward(SimTime now) {
  // Average package power over the just-completed round, from RAPL deltas.
  // The energy counter wraps (kernel max_energy_range_uj semantics): a raw
  // `energy - last` subtraction across the wrap would read as an enormous
  // power spike and the feed-forward term would slam the fan to its most
  // effective mode on pure fiction.
  const std::uint64_t energy = rapl_.energy_uj();
  const double span_s = (now - *last_round_time_).value();
  const std::uint64_t delta_uj =
      sysfs::RaplDomain::energy_delta_uj(last_energy_uj_, energy, rapl_.max_energy_range_uj());
  const double power_w = span_s > 0.0 ? static_cast<double>(delta_uj) * 1e-6 / span_s : 0.0;
  last_energy_uj_ = energy;
  last_round_time_ = now;

  // Clamp: even wrap-corrected, a counter glitch (domain reset, torn read)
  // can yield an implausible delta. Discard the sample instead of steering
  // on it — the power history simply skips a round.
  if (span_s <= 0.0 || power_w > config_.max_power_w) {
    return 0.0;
  }
  // Feed-forward: the round-over-round power change, converted to the
  // degrees it will eventually produce.
  double feedforward_dt = 0.0;
  if (last_round_power_w_ >= 0.0) {
    const double dp = power_w - last_round_power_w_;
    if (std::abs(dp) > config_.power_deadband_w) {
      feedforward_dt = config_.power_gain * dp * config_.r_thermal;
    }
  }
  last_round_power_w_ = power_w;
  return feedforward_dt;
}

}  // namespace thermctl::core
