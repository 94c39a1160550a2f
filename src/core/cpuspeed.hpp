// CPUSPEED — the utilization-driven baseline governor (§4.3).
//
// Reimplementation of Carl Thompson's cpuspeed daemon as the paper used it:
// every interval it diffs /proc/stat-style jiffy counters to compute recent
// CPU utilization, jumps to the maximum frequency when busy, and steps down
// one frequency at a time when idle enough. It is *thermally blind* — which
// is exactly why it thrashes frequencies on phase-alternating MPI codes
// (Table 1's 101–139 transitions) and lets temperature climb unchecked
// (Fig. 9).
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/proc_stat.hpp"

namespace thermctl::core {

struct CpuspeedConfig {
  /// Jump to max frequency at or above this utilization.
  double up_threshold = 0.90;
  /// Step down one frequency at or below this utilization. 0.75 makes the
  /// daemon react to the longer communication phases of MPI codes the way
  /// the paper's deployment did (~0.5 transitions/s on BT) without walking
  /// deep down the ladder on every exchange.
  double down_threshold = 0.75;
};

class CpuspeedGovernor {
 public:
  /// Governor evaluation interval (cpuspeed's -i default is 2 s; the paper's
  /// platform used a snappier 1 s).
  static constexpr Seconds kInterval{1.0};

  /// Reads and parses /proc/stat from the node's filesystem once every
  /// interval, exactly like the real cpuspeed; frequency actuation goes
  /// through cpufreq.
  CpuspeedGovernor(const sysfs::VirtualFs& fs, const sysfs::ProcStat& proc_stat,
                   sysfs::CpufreqPolicy& cpufreq, CpuspeedConfig config = {});

  /// Governor tick; call every kInterval.
  void on_interval(SimTime now);

  [[nodiscard]] const CpuspeedConfig& config() const { return config_; }
  [[nodiscard]] double last_utilization() const { return last_util_; }

 private:
  const sysfs::VirtualFs& fs_;
  const sysfs::ProcStat& proc_stat_;
  sysfs::CpufreqPolicy& cpufreq_;
  CpuspeedConfig config_;
  std::uint64_t prev_busy_ = 0;
  std::uint64_t prev_total_ = 0;
  bool primed_ = false;
  double last_util_ = 0.0;
};

}  // namespace thermctl::core
