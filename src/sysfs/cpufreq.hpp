// cpufreq sysfs binding.
//
// Exposes a CpuDevice through the Linux cpufreq userspace-governor contract:
// frequencies are kHz strings, `scaling_setspeed` accepts a target, and
// `stats/total_trans` counts transitions (the number Table 1 reports).
// Governors in src/core talk to the CPU only through this interface, exactly
// as the paper's tDVFS and CPUSPEED daemons talked to /sys.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hw/cpu_device.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {

class CpufreqPolicy {
 public:
  /// Mounts the cpufreq attribute set for `cpu` at `<root>/cpu<index>/cpufreq`
  /// (and its `stats` subdirectory) in `fs`. The policy does not own the
  /// device.
  CpufreqPolicy(VirtualFs& fs, std::string_view root, int index, hw::CpuDevice& cpu);
  ~CpufreqPolicy();

  CpufreqPolicy(const CpufreqPolicy&) = delete;
  CpufreqPolicy& operator=(const CpufreqPolicy&) = delete;

  /// Convenience accessors mirroring the attribute contents.
  [[nodiscard]] long cur_khz() const;
  [[nodiscard]] long max_khz() const;
  [[nodiscard]] long min_khz() const;

  /// Sets frequency through the same path a sysfs write would take.
  bool set_khz(long khz);

  /// Parses scaling_available_frequencies into GHz values (file order).
  [[nodiscard]] std::vector<double> available_ghz() const;

  /// Identity of the p-state table behind scaling_available_frequencies:
  /// policies returning the same pointer list the same frequencies.
  [[nodiscard]] const void* pstate_table() const { return cpu_.pstates().data(); }

  // lround, not truncation: 2.2 GHz * 1e6 lands just below 2200000 in
  // binary floating point, and a truncated 2199999 would never match the
  // ladder entries parsed back from the attribute text.
  static long to_khz(GigaHertz f) { return std::lround(f.value() * 1e6); }
  static GigaHertz from_khz(long khz) { return GigaHertz{static_cast<double>(khz) * 1e-6}; }

 private:
  // The cpufreq directory's files in name order; the enum indexes kFiles.
  enum File : std::uint8_t {
    kCpuinfoMaxFreq,
    kCpuinfoMinFreq,
    kScalingAvailableFrequencies,
    kScalingCurFreq,
    kScalingGovernor,
    kScalingSetspeed,
    kFileCount
  };
  static const VirtualFs::Attr kFiles[kFileCount];
  static const VirtualFs::Attr kStatsFiles[1];  // stats/total_trans

  VirtualFs& fs_;
  hw::CpuDevice& cpu_;
  VirtualFs::Mount mount_;
  VirtualFs::Mount stats_mount_;
};

}  // namespace thermctl::sysfs
