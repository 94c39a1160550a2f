#include "core/tdvfs.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace thermctl::core {

namespace {

/// The frequencies `cpufreq` lists, ordered fastest (least effective at
/// cooling) to slowest (most effective).
std::vector<double> frequency_modes(const sysfs::CpufreqPolicy& cpufreq) {
  const double max_ghz = sysfs::CpufreqPolicy::from_khz(cpufreq.max_khz()).value();
  const double min_ghz = sysfs::CpufreqPolicy::from_khz(cpufreq.min_khz()).value();
  THERMCTL_ASSERT(max_ghz > 0.0 && min_ghz > 0.0, "cpufreq bounds unavailable");
  std::vector<double> modes = cpufreq.available_ghz();
  std::sort(modes.begin(), modes.end(), std::greater<>());
  return modes;
}

}  // namespace

TdvfsFamily::TdvfsFamily(const TdvfsConfig& cfg, const sysfs::CpufreqPolicy& cpufreq)
    : config(cfg),
      selector(ModeSelectorConfig{}, cfg.array_size),
      modes(frequency_modes(cpufreq)),
      array(modes, cfg.array_size, cfg.pp),
      pstate_table(cpufreq.pstate_table()) {
  THERMCTL_ASSERT(cfg.consistency_rounds >= 1, "consistency must be >= 1 round");
  THERMCTL_ASSERT(modes.size() <= DecisionLog::kMaxModes,
                  "a family lists at most 256 modes");
}

bool TdvfsFamily::admits(TdvfsConfig other, const sysfs::CpufreqPolicy& cpufreq) const {
  other.pp = config.pp;
  if (other != config) {
    return false;
  }
  if (cpufreq.pstate_table() == pstate_table) {
    return true;
  }
  return frequency_modes(cpufreq) == modes;
}

template class ThresholdTechnique<FrequencyPlane>;

}  // namespace thermctl::core
