#include "core/predictive_fan.hpp"

#include <cmath>

namespace thermctl::core {

namespace {

/// Weight of the power feed-forward term (1.0 = trust the model fully).
constexpr double kPowerGain = 0.8;
/// Thermal resistance estimate converting ΔP to eventual Δt (K/W): the
/// die-to-ambient total of the platform, a calibration input as it would be
/// on a real deployment.
constexpr double kRThermal = 0.45;
/// Reject a round's power sample entirely above this (W): wrap-corrected
/// RAPL deltas can still be garbage after a counter reset or torn read, and
/// a bogus spike must not reach the feed-forward term.
constexpr double kMaxPowerW = 400.0;

}  // namespace

PredictiveFanTechnique::PredictiveFanTechnique(sysfs::HwmonDevice& hwmon,
                                               sysfs::RaplDomain& rapl,
                                               const PredictiveFanConfig& config)
    : FanTechnique(hwmon, config.base), rapl_(rapl), config_(config) {}

void PredictiveFanTechnique::begin(SimTime now) {
  FanTechnique::begin(now);  // takes the fan over on the first tick
  if (!last_round_time_.has_value()) {
    rebaseline(now);
  }
}

void PredictiveFanTechnique::on_verdict(SimTime now, SensorVerdict verdict,
                                        TwoLevelWindow& window) {
  const bool was_failsafe = in_failsafe();
  FanTechnique::on_verdict(now, verdict, window);
  if (in_failsafe() != was_failsafe) {
    // The outage can outlast a counter wrap, and the load can change under
    // it: neither the energy nor the power before it says anything now.
    rebaseline(now);
  }
}

void PredictiveFanTechnique::rebaseline(SimTime now) {
  last_energy_uj_ = rapl_.energy_uj();
  last_round_time_ = now;
  last_round_power_w_ = -1.0;
}

void PredictiveFanTechnique::act(SimTime now, const WindowRound& round) {
  const double feedforward_dt = feedforward(now);
  WindowRound augmented = round;
  augmented.level1_delta = augmented.level1_delta + CelsiusDelta{feedforward_dt};

  // What history alone would have decided, for attribution.
  const bool history_would_move = family().selector.decide(current_index(), round).changed;
  const std::uint64_t retargets = retarget_count();
  FanTechnique::act(now, augmented);
  if (retarget_count() != retargets && feedforward_dt != 0.0 && !history_would_move) {
    ++feedforward_;  // the counter term alone caused this move
  }
}

double PredictiveFanTechnique::feedforward(SimTime now) {
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
  if (span_s <= 0.0 || power_w > kMaxPowerW) {
    return 0.0;
  }
  // Feed-forward: the round-over-round power change, converted to the
  // degrees it will eventually produce.
  double feedforward_dt = 0.0;
  if (last_round_power_w_ >= 0.0) {
    const double dp = power_w - last_round_power_w_;
    if (std::abs(dp) > config_.power_deadband_w) {
      feedforward_dt = kPowerGain * dp * kRThermal;
    }
  }
  last_round_power_w_ = power_w;
  return feedforward_dt;
}

}  // namespace thermctl::core
