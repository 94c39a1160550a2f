#include "hw/cstates.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace thermctl::hw {

std::vector<CState> default_cstates() {
  return {
      CState{"C1", 0.12, 1.00, Seconds{2e-6}},
      CState{"C1E", 0.06, 0.90, Seconds{10e-6}},
      CState{"C2", 0.02, 0.75, Seconds{100e-6}},
  };
}

IdleInjector::IdleInjector(IdleInjectorParams params, InjectorColumns& cols, std::size_t slot)
    : params_(std::move(params)), cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.generation.size(), "column slot out of range");
  THERMCTL_ASSERT(!params_.cstates.empty(), "need at least one C-state");
  THERMCTL_ASSERT(params_.period.value() > 0.0, "injection period must be positive");
  THERMCTL_ASSERT(params_.max_fraction > 0.0 && params_.max_fraction <= 0.95,
                  "implausible max injection fraction");
  for (const CState& c : params_.cstates) {
    THERMCTL_ASSERT(c.dynamic_retention >= 0.0 && c.dynamic_retention <= 1.0,
                    "dynamic retention out of range");
    THERMCTL_ASSERT(c.leakage_retention >= 0.0 && c.leakage_retention <= 1.0,
                    "leakage retention out of range");
  }
}

void IdleInjector::set_injection(double fraction, std::size_t state) {
  THERMCTL_ASSERT(state < params_.cstates.size(), "C-state index out of range");
  fraction_ = std::clamp(fraction, 0.0, params_.max_fraction);
  state_ = state;
  ++cols_.generation[slot_];
  refresh_mirrors();
}

double IdleInjector::throughput_factor() const {
  if (fraction_ <= 0.0) {
    return 1.0;
  }
  const double wake_loss =
      params_.cstates[state_].wakeup_latency.value() / params_.period.value();
  return std::max(0.0, 1.0 - fraction_ - wake_loss);
}

double IdleInjector::dynamic_power_factor() const {
  if (fraction_ <= 0.0) {
    return 1.0;
  }
  const double retained = params_.cstates[state_].dynamic_retention;
  return (1.0 - fraction_) + fraction_ * retained;
}

double IdleInjector::leakage_power_factor() const {
  if (fraction_ <= 0.0) {
    return 1.0;
  }
  const double retained = params_.cstates[state_].leakage_retention;
  return (1.0 - fraction_) + fraction_ * retained;
}

}  // namespace thermctl::hw
