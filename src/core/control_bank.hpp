// ControlBank — batched controller sweeps over one fleet.
//
// The fleet-scale profile shows the control path dominated not by control
// *math* but by dispatch overhead: one periodic closure per node, one
// VirtualFs round trip per sensor read, and controller objects scattered
// across the heap. A ControlBank owns a fleet's controllers of each family
// (fan / tDVFS / unified) in one contiguous vector per family and ticks a
// whole family from ONE periodic callback, running each controller's
// on_sample_with(now, reading) in node order: the same tick logic, same
// order, as N independent periodics. Node i's reading is its raw sensor
// value quantized through HwmonDevice::to_millidegrees, exactly as the
// hwmon temp1_input attribute does, so the batched read is bit-identical to
// the per-node VFS read.
//
// State has one home. Each family's constants — its config, mode selector
// and Eq. (1) array, and for tDVFS the frequency list parsed from
// scaling_available_frequencies — are built once, from the family's first
// controller, and every controller points at them. A controller holds only
// what differs per node: its window (one per unified controller, shared by
// its techniques), indices, counters, events and Pp. Pp may differ per
// node; any other difference from the family's config is rejected.
//
// The golden digests (tests/golden/) pin the bits.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "core/unified_controller.hpp"

namespace thermctl::core {

class ControlBank {
 public:
  /// `sensor_last` is the fleet's node-major array of raw sensor
  /// sample-and-hold values (FleetState::sensor().last_degc): node i's
  /// ThermalSensor must hold its reading in sensor_last[i].
  ControlBank(std::size_t nodes, const double* sensor_last);

  ControlBank(const ControlBank&) = delete;
  ControlBank& operator=(const ControlBank&) = delete;

  /// Controllers must be emplaced densely in ascending node order (node ==
  /// number already emplaced in that family). Each family holds at most
  /// `nodes` controllers, whose addresses stay stable for the bank's life.
  /// The first controller of a family fixes its config; a later one whose
  /// config differs in anything but Pp, or whose cpufreq lists other
  /// frequencies, aborts.
  DynamicFanController& emplace_fan(std::size_t node, sysfs::HwmonDevice& hwmon,
                                    const FanControlConfig& config);
  TdvfsDaemon& emplace_tdvfs(std::size_t node, sysfs::HwmonDevice& hwmon,
                             sysfs::CpufreqPolicy& cpufreq, const TdvfsConfig& config);
  /// A bank's unified controllers carry no idle-injection backstop.
  UnifiedController& emplace_unified(std::size_t node, sysfs::HwmonDevice& hwmon,
                                     sysfs::CpufreqPolicy& cpufreq, const UnifiedConfig& config);

  /// One family tick — call from a single periodic at the sampling rate.
  void tick_fans(SimTime now);
  void tick_tdvfs(SimTime now);
  void tick_unified(SimTime now);

  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] std::size_t fan_count() const { return fans_.size(); }
  [[nodiscard]] std::size_t tdvfs_count() const { return tdvfs_.size(); }
  [[nodiscard]] std::size_t unified_count() const { return unified_.size(); }
  [[nodiscard]] DynamicFanController& fan(std::size_t i) { return fans_[i]; }
  [[nodiscard]] TdvfsDaemon& tdvfs(std::size_t i) { return tdvfs_[i]; }
  [[nodiscard]] UnifiedController& unified(std::size_t i) { return unified_[i]; }

 private:
  /// Node i's reading as the hwmon temp1_input attribute reports it.
  [[nodiscard]] Celsius reading(std::size_t i) const;

  std::size_t nodes_ = 0;
  const double* sensor_last_;
  // Each family is reserved to `nodes_` with its first controller and never
  // grown past it: the control plane's Pp sinks and rig code hold
  // controller addresses.
  std::vector<DynamicFanController> fans_;
  std::vector<TdvfsDaemon> tdvfs_;
  std::vector<UnifiedController> unified_;
  // Each family's constants, built with its first controller.
  std::shared_ptr<const FanFamily> fan_family_;
  std::shared_ptr<const TdvfsFamily> tdvfs_family_;
  std::shared_ptr<const UnifiedFamily> unified_family_;
};

}  // namespace thermctl::core
