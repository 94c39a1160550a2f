#include "hw/cstates.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace thermctl::hw {

std::vector<CState> default_cstates() {
  return {
      CState{"C1", 0.12, 1.00, Seconds{2e-6}},
      CState{"C1E", 0.06, 0.90, Seconds{10e-6}},
      CState{"C2", 0.02, 0.75, Seconds{100e-6}},
  };
}

InjectorColumns::InjectorColumns(std::size_t n, IdleInjectorParams injector_params)
    : params(std::move(injector_params)),
      dynamic_factor(n, 1.0),
      leakage_factor(n, 1.0),
      throughput_factor(n, 1.0),
      generation(n, 0) {
  THERMCTL_ASSERT(!params.cstates.empty(), "need at least one C-state");
  THERMCTL_ASSERT(params.period.value() > 0.0, "injection period must be positive");
  THERMCTL_ASSERT(params.max_fraction > 0.0 && params.max_fraction <= 0.95,
                  "implausible max injection fraction");
  for (const CState& c : params.cstates) {
    THERMCTL_ASSERT(c.dynamic_retention >= 0.0 && c.dynamic_retention <= 1.0,
                    "dynamic retention out of range");
    THERMCTL_ASSERT(c.leakage_retention >= 0.0 && c.leakage_retention <= 1.0,
                    "leakage retention out of range");
  }
}

IdleInjector::IdleInjector(InjectorColumns& cols, std::size_t slot) : cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.generation.size(), "column slot out of range");
}

void IdleInjector::set_injection(double fraction, std::size_t state) {
  THERMCTL_ASSERT(state < params().cstates.size(), "C-state index out of range");
  fraction_ = std::clamp(fraction, 0.0, params().max_fraction);
  state_ = state;
  ++cols_.generation[slot_];
  refresh_mirrors();
}

void IdleInjector::refresh_mirrors() {
  double dynamic = 1.0;
  double leakage = 1.0;
  double throughput = 1.0;
  if (active()) {
    const CState& c = params().cstates[state_];
    dynamic = (1.0 - fraction_) + fraction_ * c.dynamic_retention;
    leakage = (1.0 - fraction_) + fraction_ * c.leakage_retention;
    const double wake_loss = c.wakeup_latency.value() / params().period.value();
    throughput = std::max(0.0, 1.0 - fraction_ - wake_loss);
  }
  cols_.dynamic_factor[slot_] = dynamic;
  cols_.leakage_factor[slot_] = leakage;
  cols_.throughput_factor[slot_] = throughput;
}

}  // namespace thermctl::hw
