#include "core/control_bank.hpp"

#include <cmath>

namespace thermctl::core {

ControlBank::ControlBank(std::size_t nodes, const double* sensor_last)
    : nodes_(nodes), sensor_last_(sensor_last), readings_(nodes, 0.0) {
  THERMCTL_ASSERT(nodes > 0, "bank needs at least one node");
  THERMCTL_ASSERT(sensor_last != nullptr, "bank needs the fleet's sensor array");
  fans_.reserve(nodes);
  tdvfs_.reserve(nodes);
  unified_.reserve(nodes);
}

void ControlBank::bind_window(WindowPool& pool, std::size_t node, TwoLevelWindow& window) {
  const WindowConfig& cfg = window.config();
  if (!pool.sized) {
    pool.config = cfg;
    pool.level1.assign(nodes_ * cfg.level1_size, 0.0);
    pool.level2.assign(nodes_ * cfg.level2_size, 0.0);
    pool.fill.assign(nodes_, 0);
    pool.head.assign(nodes_, 0);
    pool.count.assign(nodes_, 0);
    pool.sized = true;
  }
  THERMCTL_ASSERT(
      cfg.level1_size == pool.config.level1_size && cfg.level2_size == pool.config.level2_size,
      "one window geometry per controller family");
  WindowSlots slots;
  slots.level1 = pool.level1.data() + node * cfg.level1_size;
  slots.level2 = pool.level2.data() + node * cfg.level2_size;
  slots.level1_fill = pool.fill.data() + node;
  slots.level2_head = pool.head.data() + node;
  slots.level2_count = pool.count.data() + node;
  window.bind_state(slots);
}

DynamicFanController& ControlBank::emplace_fan(std::size_t node, sysfs::HwmonDevice& hwmon,
                                               const FanControlConfig& config) {
  THERMCTL_ASSERT(node == fans_.size(), "emplace fans densely in node order");
  DynamicFanController& fan = fans_.emplace_back(hwmon, config);
  bind_window(fan_pool_, node, fan.window());
  return fan;
}

TdvfsDaemon& ControlBank::emplace_tdvfs(std::size_t node, sysfs::HwmonDevice& hwmon,
                                        sysfs::CpufreqPolicy& cpufreq,
                                        const TdvfsConfig& config) {
  THERMCTL_ASSERT(node == tdvfs_.size(), "emplace tdvfs densely in node order");
  TdvfsDaemon& daemon = tdvfs_.emplace_back(hwmon, cpufreq, config);
  bind_window(tdvfs_pool_, node, daemon.window());
  return daemon;
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                const UnifiedConfig& config) {
  THERMCTL_ASSERT(node == unified_.size(), "emplace unified densely in node order");
  UnifiedController& ctl = unified_.emplace_back(hwmon, cpufreq, config);
  bind_window(fan_pool_, node, ctl.fan().window());
  bind_window(tdvfs_pool_, node, ctl.dvfs().window());
  return ctl;
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                sysfs::PowerClampDevice& clamp,
                                                const UnifiedConfig& config) {
  THERMCTL_ASSERT(node == unified_.size(), "emplace unified densely in node order");
  UnifiedController& ctl = unified_.emplace_back(hwmon, cpufreq, clamp, config);
  bind_window(fan_pool_, node, ctl.fan().window());
  bind_window(tdvfs_pool_, node, ctl.dvfs().window());
  return ctl;
}

void ControlBank::latch_readings(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    // Millidegree quantization exactly as the hwmon temp1_input attribute:
    // lround to long millidegrees, back to degrees.
    readings_[i] = static_cast<double>(std::lround(sensor_last_[i] * 1000.0)) / 1000.0;
  }
}

void ControlBank::tick_fans(SimTime now) {
  const std::size_t n = fans_.size();
  latch_readings(n);
  for (std::size_t i = 0; i < n; ++i) {
    fans_[i].on_sample_with(now, Celsius{readings_[i]});
  }
}

void ControlBank::tick_tdvfs(SimTime now) {
  const std::size_t n = tdvfs_.size();
  latch_readings(n);
  for (std::size_t i = 0; i < n; ++i) {
    tdvfs_[i].on_sample_with(now, Celsius{readings_[i]});
  }
}

void ControlBank::tick_unified(SimTime now) {
  const std::size_t n = unified_.size();
  latch_readings(n);
  for (std::size_t i = 0; i < n; ++i) {
    unified_[i].on_sample_with(now, Celsius{readings_[i]});
  }
}

}  // namespace thermctl::core
