#include "core/unified_controller.hpp"

#include "common/assert.hpp"

namespace thermctl::core {
namespace {

UnifiedConfig harmonize(UnifiedConfig config) {
  // One Pp steers every technique — overwrite whatever the sub-configs held.
  config.fan.pp = config.pp;
  config.tdvfs.pp = config.pp;
  config.idle.pp = config.pp;
  // One window feeds every technique.
  config.fan.window = config.window;
  config.tdvfs.window = config.window;
  config.idle.window = config.window;
  return config;
}

}  // namespace

UnifiedFamily::UnifiedFamily(const UnifiedConfig& cfg, const sysfs::CpufreqPolicy& cpufreq,
                             const sysfs::PowerClampDevice* clamp)
    : config(harmonize(cfg)),
      fan(std::make_shared<const FanFamily>(config.fan)),
      tdvfs(std::make_shared<const TdvfsFamily>(config.tdvfs, cpufreq)),
      idle(clamp != nullptr && config.enable_idle_injection
               ? std::make_shared<const IdleInjectionFamily>(config.idle, *clamp)
               : nullptr) {}

bool UnifiedFamily::admits(UnifiedConfig other, const sysfs::CpufreqPolicy& cpufreq) const {
  other.pp = config.pp;
  return harmonize(other) == config && tdvfs->admits(config.tdvfs, cpufreq);
}

UnifiedController::UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                                     const UnifiedConfig& config)
    : UnifiedController(hwmon, cpufreq, nullptr, UnifiedFamily{config, cpufreq}, config.pp) {}

UnifiedController::UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                                     sysfs::PowerClampDevice& clamp, const UnifiedConfig& config)
    : UnifiedController(hwmon, cpufreq, &clamp, UnifiedFamily{config, cpufreq, &clamp},
                        config.pp) {}

UnifiedController::UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                                     sysfs::PowerClampDevice* clamp, const UnifiedFamily& family,
                                     PolicyParam pp)
    : window_(family.config.window),
      gate_(family.config.fault_aware, family.config.health),
      fan_(hwmon, family.fan, pp),
      dvfs_(hwmon, cpufreq, family.tdvfs, pp) {
  if (family.idle != nullptr) {
    THERMCTL_ASSERT(clamp != nullptr, "the idle-injection backstop needs a clamp");
    idle_ = std::make_unique<IdleInjectionTechnique>(hwmon, *clamp, family.idle, pp);
  }
}

void UnifiedController::on_sample(SimTime now) { on_sample_with(now, fan_.read_temperature()); }

void UnifiedController::on_sample_with(SimTime now, Celsius reading) {
  // Staged by intrusiveness: the fan costs no application performance, so
  // it gets first shot at the new sample; tDVFS acts only above its
  // threshold; idle injection, the bluntest instrument, backstops above a
  // still-higher threshold.
  fan_.begin(now);
  const SensorVerdict verdict = gate_.admit(now, reading, fan_.trace(), FanTechnique::kSubsystem);
  fan_.on_verdict(now, verdict, window_);
  const std::optional<WindowRound> round =
      verdict.push ? window_.add_sample(reading) : std::nullopt;
  if (round.has_value()) {
    fan_.act(now, *round);
  }
  const auto threshold_step = [&](auto& technique) {
    technique.begin(now);
    technique.on_verdict(now, verdict, window_);
    if (round.has_value()) {
      technique.act(now, *round);
    }
  };
  threshold_step(dvfs_);
  if (idle_ != nullptr) {
    threshold_step(*idle_);
  }
}

void UnifiedController::set_policy(PolicyParam pp) {
  fan_.set_policy(pp, window_);
  dvfs_.set_policy(pp, window_);
  if (idle_ != nullptr) {
    idle_->set_policy(pp, window_);
  }
}

double UnifiedController::first_dvfs_trigger_s() const {
  if (dvfs_.events().empty()) {
    return -1.0;
  }
  return dvfs_.events().front().time_s;
}

}  // namespace thermctl::core
