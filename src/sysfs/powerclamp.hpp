// Idle-injection cooling device (the intel_powerclamp sysfs contract).
//
// Linux exposes forced-idle as a thermal *cooling device*:
//   /sys/class/thermal/cooling_device<N>/type       "intel_powerclamp"
//   /sys/class/thermal/cooling_device<N>/max_state  maximum idle ratio step
//   /sys/class/thermal/cooling_device<N>/cur_state  commanded idle ratio (%)
//
// This binding drives the CPU's IdleInjector through that contract, so the
// sleep-state technique actuates through the same kind of OS surface as the
// fan (hwmon) and DVFS (cpufreq) paths.
#pragma once

#include <cstdint>
#include <string_view>

#include "hw/cpu_device.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {

class PowerClampDevice {
 public:
  /// Mounts `<root>/cooling_device<index>` driving `cpu`'s injector.
  PowerClampDevice(VirtualFs& fs, std::string_view root, int index, hw::CpuDevice& cpu);
  ~PowerClampDevice();

  PowerClampDevice(const PowerClampDevice&) = delete;
  PowerClampDevice& operator=(const PowerClampDevice&) = delete;

  /// Maximum cur_state (idle percent ceiling from the injector's params).
  [[nodiscard]] long max_state() const;
  [[nodiscard]] long cur_state() const;
  bool set_cur_state(long state);

  /// Selects which C-state injections use (deepest by default).
  void set_cstate_index(std::size_t index) { cstate_ = index; }

 private:
  // The cooling device's files in name order; the enum indexes kFiles.
  enum File : std::uint8_t { kCurState, kMaxState, kType, kFileCount };
  static const VirtualFs::Attr kFiles[kFileCount];

  VirtualFs& fs_;
  hw::CpuDevice& cpu_;
  std::size_t cstate_;
  VirtualFs::Mount mount_;
};

}  // namespace thermctl::sysfs
