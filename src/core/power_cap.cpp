#include "core/power_cap.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::core {

PowerCapper::PowerCapper(sysfs::RaplDomain& rapl, sysfs::CpufreqPolicy& cpufreq,
                         PowerCapConfig config)
    : rapl_(rapl), cpufreq_(cpufreq), config_(config) {
  THERMCTL_ASSERT(config_.budget.value() > 0.0, "budget must be positive");
  THERMCTL_ASSERT(config_.margin.value() >= 0.0, "margin must be non-negative");
}

void PowerCapper::on_interval(SimTime now) {
  const std::uint64_t energy = rapl_.energy_uj();
  if (!primed_) {
    last_energy_uj_ = energy;
    last_time_ = now;
    primed_ = true;
    return;
  }
  const double span = (now - last_time_).value();
  if (span <= 0.0) {
    return;
  }
  // Wrap-correct delta: the RAPL counter rolls over at max_energy_range_uj,
  // and a raw subtraction across the wrap would read as a colossal power
  // spike and throttle the CPU for nothing.
  const std::uint64_t delta_uj =
      sysfs::RaplDomain::energy_delta_uj(last_energy_uj_, energy, rapl_.max_energy_range_uj());
  last_power_w_ = static_cast<double>(delta_uj) * 1e-6 / span;
  last_energy_uj_ = energy;
  last_time_ = now;

  if (last_power_w_ > config_.budget.value()) {
    overshoot_s_ += span;
  }

  const std::vector<double> ladder = cpufreq_.available_ghz();  // descending
  const long cur = cpufreq_.cur_khz();
  auto index_of = [&ladder](long khz) {
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (sysfs::CpufreqPolicy::to_khz(GigaHertz{ladder[i]}) == khz) {
        return static_cast<long>(i);
      }
    }
    return 0L;
  };
  const long idx = index_of(cur);

  if (last_power_w_ > config_.budget.value() &&
      idx + 1 < static_cast<long>(ladder.size())) {
    cpufreq_.set_khz(
        sysfs::CpufreqPolicy::to_khz(GigaHertz{ladder[static_cast<std::size_t>(idx + 1)]}));
    THERMCTL_LOG_DEBUG("powercap", "%.1f W over %.1f W budget: stepping down", last_power_w_,
                       config_.budget.value());
  } else if (last_power_w_ < config_.budget.value() - config_.margin.value() && idx > 0) {
    // Predictive step-up: estimate power at the next faster state with the
    // cubic frequency law (voltage scales with frequency — the paper's own
    // "scaling down DVFS processor frequency cubically reduces power"), and
    // only step if the estimate still fits the budget. Without this the
    // capper ping-pongs whenever the budget falls between two ladder powers.
    const double f_cur = ladder[static_cast<std::size_t>(idx)];
    const double f_up = ladder[static_cast<std::size_t>(idx - 1)];
    const double ratio = (f_up / f_cur) * (f_up / f_cur) * (f_up / f_cur);
    if (last_power_w_ * ratio <= config_.budget.value() - 1.0) {
      cpufreq_.set_khz(
          sysfs::CpufreqPolicy::to_khz(GigaHertz{ladder[static_cast<std::size_t>(idx - 1)]}));
    }
  }
}

}  // namespace thermctl::core
