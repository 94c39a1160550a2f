// Server power capping — Lefurgy et al.'s "server-level power control"
// (related work §2) on this stack: hold the node's package power at or
// below a budget by stepping DVFS, reading actual power from the RAPL
// energy counter.
//
// The loop is deliberately simple (it reproduces the cited controller's
// observable behaviour, not its internals): every interval compute average
// package power since the last interval; if above budget, step one P-state
// down; if comfortably below (budget − margin) and not at nominal, step one
// up. Transition counts stay low because the margin provides hysteresis.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/powercap.hpp"

namespace thermctl::core {

struct PowerCapConfig {
  /// Package (DC) power budget.
  Watts budget{45.0};
  /// Step back up only below budget − margin.
  Watts margin{6.0};
};

class PowerCapper {
 public:
  /// Evaluation interval.
  static constexpr Seconds kInterval{1.0};

  PowerCapper(sysfs::RaplDomain& rapl, sysfs::CpufreqPolicy& cpufreq, PowerCapConfig config);

  /// Capper tick; call every kInterval.
  void on_interval(SimTime now);

  [[nodiscard]] double last_power_w() const { return last_power_w_; }
  [[nodiscard]] const PowerCapConfig& config() const { return config_; }
  /// Seconds the measured power exceeded the budget (capping error).
  [[nodiscard]] double overshoot_seconds() const { return overshoot_s_; }

 private:
  sysfs::RaplDomain& rapl_;
  sysfs::CpufreqPolicy& cpufreq_;
  PowerCapConfig config_;
  std::uint64_t last_energy_uj_ = 0;
  SimTime last_time_{};
  bool primed_ = false;
  double last_power_w_ = 0.0;
  double overshoot_s_ = 0.0;
};

}  // namespace thermctl::core
