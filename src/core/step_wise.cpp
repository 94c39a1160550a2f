#include "core/step_wise.hpp"

#include <cmath>

#include "common/log.hpp"

namespace thermctl::core {

namespace {

/// Trend deadband: |ΔT| below this counts as stable (°C per sample).
constexpr double kTrendDeadbandC = 0.05;

}  // namespace

StepWiseGovernor::StepWiseGovernor(sysfs::ThermalZone& zone, StepWiseConfig config)
    : zone_(zone), config_(config) {}

void StepWiseGovernor::on_sample(SimTime now) {
  (void)now;
  const double temp = zone_.temperature().value();
  // The first sample has no predecessor, so its trend is defined as flat —
  // an explicit flag rather than a magic sentinel, so absurd-but-real
  // readings (a sensor fault reporting a huge negative value) cannot be
  // mistaken for "not yet primed".
  const double trend = primed_ ? temp - last_temp_ : 0.0;
  last_temp_ = temp;
  primed_ = true;

  bool above_passive = false;
  for (const sysfs::TripPoint& trip : zone_.trips()) {
    if (trip.type == sysfs::TripType::kCritical) {
      if (temp >= trip.temperature.value()) {
        if (!critical_latched_) {
          ++critical_;
          critical_latched_ = true;
          THERMCTL_LOG_WARN("step_wise", "critical trip crossed at %.1f C", temp);
        }
      } else {
        critical_latched_ = false;
      }
      continue;
    }
    if (temp >= trip.temperature.value()) {
      above_passive = true;
    }
  }

  const bool rising = trend > kTrendDeadbandC;
  const bool falling = trend < -kTrendDeadbandC;
  falling_streak_ = falling ? falling_streak_ + 1 : 0;

  const auto step_down_all = [this] {
    for (sysfs::CoolingDevice* dev : zone_.bound_devices()) {
      if (dev->cooling_state() > 0 && dev->set_cooling_state(dev->cooling_state() - 1)) {
        ++steps_down_;
      }
    }
  };

  if (above_passive && rising) {
    for (sysfs::CoolingDevice* dev : zone_.bound_devices()) {
      if (dev->cooling_state() < dev->max_cooling_state() &&
          dev->set_cooling_state(dev->cooling_state() + 1)) {
        ++steps_up_;
      }
    }
    falling_streak_ = 0;
  } else if (!above_passive && falling) {
    step_down_all();
  } else if (above_passive && falling_streak_ >= config_.cooling_consistency) {
    // Still past the trip but consistently cooling: relax one step rather
    // than pinning every device at its peak state until the temperature
    // finally drops below the trip. The consistency requirement is the
    // hysteresis — one cool-looking sample must not unwind the response.
    step_down_all();
    falling_streak_ = 0;
  }
}

}  // namespace thermctl::core
