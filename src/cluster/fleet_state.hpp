// Fleet-wide structure-of-arrays node state.
//
// A rack of N simulated machines is N node object graphs for the per-node
// API (sysfs, controllers), but none of them owns its hot state or its
// constants: FleetState keeps both, in one place:
//
//   * one column group per device, declared next to the device it belongs
//     to: thermal::PackageColumns (the die–heatsink–ambient chain's
//     temperatures, die power, convection and airflow memo, which it also
//     solves), hw::CpuColumns (operating point, power memo, counter block
//     and the idle injector's group), hw::FanColumns, hw::ChipColumns,
//     hw::MeterColumns and hw::SensorColumns;
//   * NodeColumns: the node's own jiffy, protection, BMC-override and
//     sampling-schedule state.
//
// Each group is the only storage of its fields. A group whose device has
// constants holds one const copy of them, built from the base NodeParams,
// and a fresh group holds every device's power-on values. The sensor group
// measures the package group's die-temperature row and holds each row's
// noise generator, which the row's Node seeds. Every Node is a view over
// one slot: its PackageModel and each of its devices is a (group, slot)
// view, so controllers and sysfs keep their per-node object API while the
// fleet carries one copy of each constant.
// The payoff is the engine's hot loop: one PackageColumns::step_range call
// advances the whole fleet's thermals over unit-stride rows, and FleetSweep
// runs the per-node device/OS phases as contiguous array passes instead of
// N object-graph walks. Neither vectorizes at the build's -O2 (GCC's
// default cost model leaves both scalar); the gain is the memory layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/fan_device.hpp"
#include "hw/power_meter.hpp"
#include "hw/thermal_sensor.hpp"
#include "thermal/package_model.hpp"

namespace thermctl::cluster {

struct ProtectionParams {
  /// PROCHOT assertion temperature (clock throttle, self-clearing).
  Celsius prochot{78.0};
  CelsiusDelta prochot_hysteresis{3.0};
  bool prochot_enabled = true;
  /// THERMTRIP halt temperature (node goes down until cleared).
  Celsius critical{90.0};
  bool critical_enabled = true;
};

/// One machine's constants. Every node of a fleet shares them; only the
/// noise seed differs per node (Cluster derives it from `seed`).
struct NodeParams {
  hw::CpuParams cpu{};
  hw::FanParams fan{};
  hw::SensorParams sensor{};
  thermal::PackageParams package{};
  hw::PowerMeterParams meter{};
  ProtectionParams protection{};
  /// Sensor sampling period (paper: 4 samples per second).
  Seconds sample_period{0.25};
  std::uint64_t seed = 1;
};

/// The protection ladder's thresholds, once for every row, and a node's own
/// OS and protection state, one row per node. A fresh row is a running node
/// at zero utilization and zero counters, with no BMC override and an
/// unarmed sampling schedule (Node arms it).
struct NodeColumns {
  NodeColumns(std::size_t n, const ProtectionParams& protection_params);

  const ProtectionParams protection;
  std::vector<double> util;  // utilization fraction the workload imposes
  std::vector<std::uint64_t> busy_jiffies;
  std::vector<std::uint64_t> total_jiffies;
  std::vector<double> jiffy_rem_busy;  // fractional jiffies not yet counted
  std::vector<double> jiffy_rem_total;
  std::vector<std::int32_t> prochot_events;
  std::vector<double> prochot_seconds;
  std::vector<std::uint8_t> halted;
  std::vector<double> bmc_override_duty;  // percent; valid when the set flag != 0
  std::vector<std::uint8_t> bmc_override_set;
  std::vector<PeriodicSchedule> sample_schedule;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) {
    return std::tie(g.util, g.busy_jiffies, g.total_jiffies, g.jiffy_rem_busy, g.jiffy_rem_total,
                    g.prochot_events, g.prochot_seconds, g.halted, g.bmc_override_duty,
                    g.bmc_override_set, g.sample_schedule);
  }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }
};

class FleetState {
 public:
  /// Allocates SoA state for `count` nodes built from `base`.
  FleetState(const NodeParams& base, std::size_t count);

  [[nodiscard]] std::size_t size() const { return package_.size(); }

  // ---- the column groups, one per device ----
  /// The packages' group, which every node's PackageModel views into and
  /// which solves their thermals in batch.
  [[nodiscard]] thermal::PackageColumns& batch() { return package_; }
  [[nodiscard]] const thermal::PackageColumns& batch() const { return package_; }
  [[nodiscard]] hw::CpuColumns& cpu() { return cpu_; }
  [[nodiscard]] hw::FanColumns& fan() { return fan_; }
  [[nodiscard]] hw::ChipColumns& chip() { return chip_; }
  [[nodiscard]] hw::MeterColumns& meter() { return meter_; }
  [[nodiscard]] hw::SensorColumns& sensor() { return sensor_; }
  [[nodiscard]] NodeColumns& node() { return node_; }

  // ---- forwards kept for the benchmark harness ----
  [[nodiscard]] double* sensor_last_data() { return sensor_.last_degc.data(); }
  [[nodiscard]] double* fan_duty_data() { return fan_.duty_pct.data(); }
  [[nodiscard]] double* fan_rpm_data() { return fan_.rpm.data(); }
  [[nodiscard]] double* util_data() { return node_.util.data(); }
  [[nodiscard]] std::uint8_t* halted_data() { return node_.halted.data(); }

  /// Heap footprint of the fleet's hot state (bytes): every group's
  /// columns. The scaling benchmark divides this by node count.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  thermal::PackageColumns package_;
  hw::CpuColumns cpu_;
  hw::FanColumns fan_;
  hw::ChipColumns chip_;
  hw::MeterColumns meter_;
  hw::SensorColumns sensor_;
  NodeColumns node_;
};

}  // namespace thermctl::cluster
