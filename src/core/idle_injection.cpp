#include "core/idle_injection.hpp"

#include <vector>

#include "common/assert.hpp"

namespace thermctl::core {

namespace {

/// The idle percentages `clamp` accepts in `config.percent_step` steps,
/// ascending (ascending idle percent = ascending cooling effectiveness).
std::vector<double> clamp_modes(const sysfs::PowerClampDevice& clamp,
                                const IdleInjectionConfig& config) {
  THERMCTL_ASSERT(config.percent_step >= 1, "percent step must be >= 1");
  std::vector<double> modes;
  const long max_state = clamp.max_state();
  for (long p = 0; p <= max_state; p += config.percent_step) {
    modes.push_back(static_cast<double>(p));
  }
  if (modes.back() < static_cast<double>(max_state)) {
    modes.push_back(static_cast<double>(max_state));
  }
  return modes;
}

}  // namespace

IdleInjectionFamily::IdleInjectionFamily(const IdleInjectionConfig& cfg,
                                         const sysfs::PowerClampDevice& clamp)
    : config(cfg),
      selector(cfg.selector, cfg.array_size),
      array(clamp_modes(clamp, cfg), cfg.array_size, cfg.pp) {
  THERMCTL_ASSERT(cfg.consistency_rounds >= 1, "consistency must be >= 1 round");
  THERMCTL_ASSERT(cfg.release_rounds >= 1, "release consistency must be >= 1 round");
}

template class ThresholdTechnique<ClampPlane>;

IdleInjectionController::IdleInjectionController(sysfs::HwmonDevice& hwmon,
                                                 sysfs::PowerClampDevice& clamp,
                                                 const IdleInjectionConfig& config)
    : IdleInjectionTechnique(hwmon, clamp, config), window_(config.window) {}

void IdleInjectionController::on_sample(SimTime now) {
  begin(now);
  if (const auto round = window_.add_sample(read_temperature())) {
    act(now, *round);
  }
}

}  // namespace thermctl::core
