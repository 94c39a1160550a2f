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

/// The family's constants: built from its first controller's config, then
/// only checked against each later one's.
template <typename Constants, typename Config, typename... Source>
const Constants& join(std::shared_ptr<const Constants>& constants, const Config& config,
                      const Source&... source) {
  if (constants == nullptr) {
    constants = std::make_shared<const Constants>(config, source...);
  } else {
    THERMCTL_ASSERT(constants->admits(config, source...),
                    "one config per controller family: only Pp may differ per node");
  }
  return *constants;
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
  join(fan_family_, config);
  return fans_.emplace_back(hwmon, fan_family_, config.pp);
}

TdvfsDaemon& ControlBank::emplace_tdvfs(std::size_t node, sysfs::HwmonDevice& hwmon,
                                        sysfs::CpufreqPolicy& cpufreq,
                                        const TdvfsConfig& config) {
  admit(tdvfs_, node, nodes_);
  join(tdvfs_family_, config, cpufreq);
  return tdvfs_.emplace_back(hwmon, cpufreq, tdvfs_family_, config.pp);
}

UnifiedController& ControlBank::emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                                sysfs::CpufreqPolicy& cpufreq,
                                                const UnifiedConfig& config) {
  admit(unified_, node, nodes_);
  return unified_.emplace_back(hwmon, cpufreq, nullptr,
                               join(unified_family_, config, cpufreq), config.pp);
}

ControlBank::DecisionLogUse ControlBank::decision_logs() const {
  DecisionLogUse use;
  const auto add = [&use](const auto& family) {
    if (family != nullptr) {
      use.decisions += family->log.size();
      use.bytes += family->log.memory_bytes();
    }
  };
  add(fan_family_);
  add(tdvfs_family_);
  if (unified_family_ != nullptr) {
    add(unified_family_->fan);
    add(unified_family_->tdvfs);
    add(unified_family_->idle);
  }
  return use;
}

void ControlBank::set_policy(std::size_t i, PolicyParam pp) {
  if (i < fans_.size()) {
    fans_[i].set_policy(pp);
  }
  if (i < tdvfs_.size()) {
    tdvfs_[i].set_policy(pp);
  }
  if (i < unified_.size()) {
    unified_[i].set_policy(pp);
  }
}

SensorHealthStats ControlBank::health_stats() const {
  SensorHealthStats sum;
  const auto add = [&sum](const auto& family) {
    for (const auto& controller : family) {
      if (const SensorHealthMonitor* m = controller.health(); m != nullptr) {
        sum.samples += m->stats().samples;
        sum.rejected += m->stats().rejected;
        sum.stuck_detections += m->stats().stuck_detections;
        sum.failures += m->stats().failures;
        sum.recoveries += m->stats().recoveries;
      }
    }
  };
  add(fans_);
  add(tdvfs_);
  add(unified_);
  return sum;
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
