// A simulated cluster node.
//
// Composes the full hardware + OS stack of one machine in the paper's
// power-aware cluster:
//
//   workload utilization ─▶ CpuDevice ─▶ power ─▶ PackageModel (RC thermal)
//                                             ▲            │ die temperature
//   FanDevice ◀─ PWM ─ Adt7467 ◀═ i2c ═ Adt7467Driver      ▼
//        │ airflow ────────────────────────▶ convection   ThermalSensor (4 Hz)
//        └ tach ──▶ Adt7467                                 │
//   PowerMeter (wall) ◀─ CPU + fan power                    ▼
//   VirtualFs: /sys cpufreq + hwmon          controllers read here
//   BmcEndpoint: IPMI sensors + fan override (out-of-band plane)
//
// Stepping (FleetSweep, through Cluster::step) also models the hardware
// protection ladder the controllers are trying to stay clear of: PROCHOT
// clock throttling above `prochot`, and a THERMTRIP-style halt above
// `critical` (counts as a thermal emergency / availability loss).
#pragma once

#include <cstdint>
#include <optional>

#include "cluster/fleet_state.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/fan_device.hpp"
#include "hw/i2c.hpp"
#include "hw/power_meter.hpp"
#include "hw/thermal_sensor.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/ipmi.hpp"
#include "sysfs/powercap.hpp"
#include "sysfs/powerclamp.hpp"
#include "sysfs/proc_stat.hpp"
#include "sysfs/vfs.hpp"
#include "thermal/package_model.hpp"

namespace thermctl::cluster {

/// One machine of a Cluster: the device/OS object graph controllers and
/// sysfs consumers talk to, with its hot state resident in a FleetState slot
/// and its device constants shared through the fleet's column groups.
/// Cluster builds the nodes and steps them (FleetSweep); a node never steps
/// itself.
class Node {
 public:
  /// A view over `fleet`'s SoA arrays at `slot`. `base` is the NodeParams
  /// the fleet was built from; `seed` seeds this node's sensor noise.
  Node(int id, const NodeParams& base, FleetState& fleet, std::size_t slot, std::uint64_t seed);

  [[nodiscard]] int id() const { return id_; }

  // ---- physics inputs (stepping is Cluster::step) ----

  /// Sets the utilization the workload imposes for the next step.
  void set_utilization(Utilization u);
  [[nodiscard]] Utilization utilization() const { return Utilization{row().util[slot_]}; }

  /// Takes a thermal-sensor reading (called on the 4 Hz schedule).
  Celsius sample_sensor() { return sensor_.sample(); }
  [[nodiscard]] const PeriodicSchedule& sample_schedule() const {
    return row().sample_schedule[slot_];
  }
  PeriodicSchedule& sample_schedule() { return row().sample_schedule[slot_]; }

  // ---- state the experiments observe ----
  [[nodiscard]] Celsius die_temperature() const { return package_.die_temperature(); }
  [[nodiscard]] Celsius sensor_reading() const { return sensor_.last_reading(); }
  [[nodiscard]] GigaHertz effective_frequency() const { return cpu_.effective_frequency(); }
  /// DC-side component power sum behind the PSU (CPU + fan).
  [[nodiscard]] Watts dc_power() const { return Watts{cpu_.power().value() + fan_.power().value()}; }
  /// Metered AC wall power: the meter's display of dc_power().
  [[nodiscard]] Watts wall_power() const { return meter_.read_with(dc_power()); }

  /// /proc/stat-style cumulative counters at USER_HZ (100 jiffies/second);
  /// utilization governors diff these, exactly like the real daemon.
  [[nodiscard]] std::uint64_t busy_jiffies() const { return row().busy_jiffies[slot_]; }
  [[nodiscard]] std::uint64_t total_jiffies() const { return row().total_jiffies[slot_]; }

  [[nodiscard]] int prochot_events() const { return row().prochot_events[slot_]; }
  [[nodiscard]] Seconds prochot_time() const { return Seconds{row().prochot_seconds[slot_]}; }
  [[nodiscard]] bool halted() const { return row().halted[slot_] != 0; }
  /// Clears a THERMTRIP halt (operator power-cycles the node).
  void clear_halt() { row().halted[slot_] = 0; }

  // ---- subsystem access for wiring controllers ----
  [[nodiscard]] hw::CpuDevice& cpu() { return cpu_; }
  [[nodiscard]] const hw::CpuDevice& cpu() const { return cpu_; }
  [[nodiscard]] hw::FanDevice& fan() { return fan_; }
  [[nodiscard]] hw::Adt7467& fan_chip() { return chip_; }
  [[nodiscard]] hw::I2cBus& i2c() { return i2c_; }
  [[nodiscard]] hw::PowerMeter& meter() { return meter_; }
  [[nodiscard]] const hw::PowerMeter& meter() const { return meter_; }
  [[nodiscard]] thermal::PackageModel& package() { return package_; }
  [[nodiscard]] hw::ThermalSensor& sensor() { return sensor_; }
  [[nodiscard]] sysfs::VirtualFs& vfs() { return vfs_; }
  [[nodiscard]] sysfs::Adt7467Driver& fan_driver() { return driver_; }
  [[nodiscard]] const sysfs::Adt7467Driver& fan_driver() const { return driver_; }
  [[nodiscard]] sysfs::CpufreqPolicy& cpufreq() { return cpufreq_; }
  [[nodiscard]] sysfs::HwmonDevice& hwmon() { return hwmon_; }
  [[nodiscard]] sysfs::PowerClampDevice& powerclamp() { return clamp_; }
  [[nodiscard]] sysfs::RaplDomain& rapl() { return rapl_; }
  [[nodiscard]] sysfs::ProcStat& proc_stat() { return proc_stat_; }
  [[nodiscard]] sysfs::BmcEndpoint& bmc() { return bmc_; }

  /// Brings the node to thermal equilibrium at the current load (experiment
  /// priming: the machine has been idling before the job starts).
  void settle();

  /// settle() in stages, so Cluster::settle_all can march every node's
  /// package in one batched RC settle per pass: for each pass p in
  /// [0, kSettlePasses), prepare_settle(p) and then the package settle;
  /// finally finish_settle().
  static constexpr int kSettlePasses = 3;
  void prepare_settle(int pass);
  void finish_settle();

 private:
  /// This node's OS/protection scalars live in row `slot_` of these columns.
  [[nodiscard]] NodeColumns& row() const { return fleet_.node(); }

  // The BMC's sensor repository in sensor-number order, read through the
  // node.
  static const sysfs::BmcEndpoint::Sensor kBmcSensors[3];

  int id_;
  FleetState& fleet_;
  std::size_t slot_;
  hw::CpuDevice cpu_;
  hw::FanDevice fan_;
  hw::Adt7467 chip_;
  hw::I2cBus i2c_;
  thermal::PackageModel package_;
  hw::ThermalSensor sensor_;
  hw::PowerMeter meter_;
  sysfs::VirtualFs vfs_;  // before the devices mounted in it
  sysfs::Adt7467Driver driver_;
  sysfs::CpufreqPolicy cpufreq_;
  sysfs::HwmonDevice hwmon_;
  sysfs::PowerClampDevice clamp_;
  sysfs::RaplDomain rapl_;
  sysfs::ProcStat proc_stat_;
  sysfs::BmcEndpoint bmc_;
};

}  // namespace thermctl::cluster
