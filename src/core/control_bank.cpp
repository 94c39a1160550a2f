#include "core/control_bank.hpp"

#include "common/assert.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {
namespace {

/// Admits `node` as the family's next controller: dense, in node order and
/// within the bank. The family's storage is reserved with its first
/// controller and never grows past `nodes`, so controller addresses stay
/// stable; a family the rig never uses costs nothing.
template <typename Family>
void admit(Family& family, std::size_t node, std::size_t nodes) {
  THERMCTL_ASSERT(node == family.size(), "emplace controllers densely in node order");
  THERMCTL_ASSERT(node < nodes, "bank capacity exceeded");
  if (family.empty()) {
    family.reserve(nodes);
  }
}

}  // namespace

ControlBank::ControlBank(std::size_t nodes, const double* sensor_last)
    : nodes_(nodes), sensor_last_(sensor_last) {
  THERMCTL_ASSERT(nodes > 0, "bank needs at least one node");
  THERMCTL_ASSERT(sensor_last != nullptr, "bank needs the fleet's sensor array");
}

DynamicFanController& ControlBank::emplace_fan(std::size_t node, sysfs::HwmonDevice& hwmon,
                                               const FanControlConfig& config) {
  admit(fans_, node, nodes_);
  return fans_.emplace_back(hwmon, config);
}

TdvfsDaemon& ControlBank::emplace_tdvfs(std::size_t node, sysfs::HwmonDevice& hwmon,
                                        sysfs::CpufreqPolicy& cpufreq,
                                        const TdvfsConfig& config) {
  admit(tdvfs_, node, nodes_);
  return tdvfs_.emplace_back(hwmon, cpufreq, config);
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                const UnifiedConfig& config) {
  admit(unified_, node, nodes_);
  return unified_.emplace_back(hwmon, cpufreq, config);
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                sysfs::PowerClampDevice& clamp,
                                                const UnifiedConfig& config) {
  admit(unified_, node, nodes_);
  return unified_.emplace_back(hwmon, cpufreq, clamp, config);
}

Celsius ControlBank::reading(std::size_t i) const {
  return sysfs::HwmonDevice::from_millidegrees(
      sysfs::HwmonDevice::to_millidegrees(Celsius{sensor_last_[i]}));
}

void ControlBank::tick_fans(SimTime now) {
  for (std::size_t i = 0; i < fans_.size(); ++i) {
    fans_[i].on_sample_with(now, reading(i));
  }
}

void ControlBank::tick_tdvfs(SimTime now) {
  for (std::size_t i = 0; i < tdvfs_.size(); ++i) {
    tdvfs_[i].on_sample_with(now, reading(i));
  }
}

void ControlBank::tick_unified(SimTime now) {
  for (std::size_t i = 0; i < unified_.size(); ++i) {
    unified_[i].on_sample_with(now, reading(i));
  }
}

}  // namespace thermctl::core
