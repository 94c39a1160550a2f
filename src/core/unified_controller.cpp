#include "core/unified_controller.hpp"

namespace thermctl::core {

UnifiedConfig UnifiedController::harmonize(UnifiedConfig config) {
  // One Pp steers every technique — overwrite whatever the sub-configs held.
  config.fan.pp = config.pp;
  config.tdvfs.pp = config.pp;
  config.idle.pp = config.pp;
  // Fault-awareness is likewise a single knob: both gated techniques see the
  // same classification thresholds.
  config.fan.fault_aware = config.fault_aware;
  config.fan.health = config.health;
  config.tdvfs.fault_aware = config.fault_aware;
  config.tdvfs.health = config.health;
  return config;
}

UnifiedController::UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                                     UnifiedConfig config)
    : fan_(hwmon, harmonize(config).fan), dvfs_(hwmon, cpufreq, harmonize(config).tdvfs) {}

UnifiedController::UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                                     sysfs::PowerClampDevice& clamp, UnifiedConfig config)
    : fan_(hwmon, harmonize(config).fan), dvfs_(hwmon, cpufreq, harmonize(config).tdvfs) {
  if (config.enable_idle_injection) {
    idle_ = std::make_unique<IdleInjectionController>(hwmon, clamp, harmonize(config).idle);
  }
}

void UnifiedController::on_sample(SimTime now) {
  // Staged by intrusiveness: the fan costs no application performance, so
  // it gets first shot at the new sample; tDVFS acts only above its
  // threshold; idle injection, the bluntest instrument, backstops above a
  // still-higher threshold.
  fan_.on_sample(now);
  dvfs_.on_sample(now);
  if (idle_ != nullptr) {
    idle_->on_sample(now);
  }
}

void UnifiedController::on_sample_with(SimTime now, Celsius reading) {
  fan_.on_sample_with(now, reading);
  dvfs_.on_sample_with(now, reading);
  if (idle_ != nullptr) {
    idle_->on_sample(now);
  }
}

void UnifiedController::set_policy(PolicyParam pp) {
  fan_.set_policy(pp);
  dvfs_.set_policy(pp);
  if (idle_ != nullptr) {
    idle_->set_policy(pp);
  }
}

double UnifiedController::first_dvfs_trigger_s() const {
  if (dvfs_.events().empty()) {
    return -1.0;
  }
  return dvfs_.events().front().time_s;
}

}  // namespace thermctl::core
