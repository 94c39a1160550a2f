#include "core/cpuspeed.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace thermctl::core {

CpuspeedGovernor::CpuspeedGovernor(const sysfs::VirtualFs& fs,
                                   const sysfs::ProcStat& proc_stat,
                                   sysfs::CpufreqPolicy& cpufreq, CpuspeedConfig config)
    : fs_(fs), proc_stat_(proc_stat), cpufreq_(cpufreq), config_(config) {
  THERMCTL_ASSERT(config_.up_threshold > config_.down_threshold,
                  "up threshold must exceed down threshold");
}

void CpuspeedGovernor::on_interval(SimTime now) {
  (void)now;
  const auto [busy, total] = proc_stat_.read(fs_).value_or(sysfs::JiffySnapshot{});
  if (!primed_) {
    prev_busy_ = busy;
    prev_total_ = total;
    primed_ = true;
    return;
  }
  const std::uint64_t d_busy = busy - prev_busy_;
  const std::uint64_t d_total = total - prev_total_;
  prev_busy_ = busy;
  prev_total_ = total;
  if (d_total == 0) {
    return;
  }
  last_util_ = static_cast<double>(d_busy) / static_cast<double>(d_total);

  if (last_util_ >= config_.up_threshold) {
    // Busy: jump straight to the fastest frequency (cpuspeed behaviour).
    cpufreq_.set_khz(cpufreq_.max_khz());
    return;
  }
  if (last_util_ <= config_.down_threshold) {
    // Idle enough: step down one rung of the ladder.
    std::vector<double> ladder = cpufreq_.available_ghz();  // descending
    const long cur = cpufreq_.cur_khz();
    for (std::size_t i = 0; i + 1 < ladder.size(); ++i) {
      const long khz = sysfs::CpufreqPolicy::to_khz(GigaHertz{ladder[i]});
      if (khz == cur) {
        cpufreq_.set_khz(sysfs::CpufreqPolicy::to_khz(GigaHertz{ladder[i + 1]}));
        return;
      }
    }
  }
}

}  // namespace thermctl::core
