// Batched per-node device/OS sweep over FleetState's SoA arrays — the only
// code that steps nodes (Cluster::step_range drives it around the
// PackageColumns solve).
//
// Per physics step every node needs utilization latching, fan rotor
// dynamics, the CPU power model, the fan chip's measurement protocol, meter
// integration, counter advance, the protection ladder, jiffy accounting and
// the sensor sampling schedule. Walking those as N object graphs touches N
// scattered objects per step. Every hot field has one home instead: a
// column of its device's group in FleetState (thermal::PackageColumns,
// hw::CpuColumns, FanColumns, ChipColumns, MeterColumns, SensorColumns and
// NodeColumns), which the device objects read and write by slot and which
// FleetSweep runs as contiguous array passes. The sweep owns no device
// arithmetic and no device constant: each formula it shares with a device
// method (the CPU power memo and counter advance, the rotor target, fan
// power and airflow, the meter's AC draw, the tach latch, the chip-register
// early-out, the airflow memo and the sensor conversion) is one kernel in
// the device's header, which both call, and the constants come from the
// groups, loaded into locals once per range call. The object API and the
// sweep are therefore interchangeable mid-run; the rotor lag and the meter
// integral are stepped here only. The passes only touch their own node's
// state, so any split of the node range is bit-identical; tests/golden/
// pins the trajectories.
//
// The constructor hoists each column's data pointer into a member once: the
// passes must not index through the groups, because a store to a uint8_t
// column may alias any object, and the compiler would then reload every
// vector's data pointer inside the loops. For the same reason the kernels
// take scalars and cells, never a group.
//
// Rare events fall back to the objects they model: an integer-degree change
// of the chip's temperature register re-runs the Adt7467 auto-curve through
// the register object. A due sensor schedule converts in the pass, with the
// row's own noise generator, so each node draws from its own stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/fleet_state.hpp"
#include "cluster/node.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace thermctl::cluster {

class FleetSweep {
 public:
  /// Builds a sweep over `fleet`'s arrays for `nodes` (the fleet-backed Node
  /// views, in slot order).
  FleetSweep(FleetState& fleet, const std::vector<Node*>& nodes);

  /// Pre-solve pass for slots [begin, end): utilization/die latch, fan
  /// rotor step, CPU power into the package, airflow → convection.
  void pre_range(std::size_t begin, std::size_t end, Seconds dt);

  /// Post-solve pass for slots [begin, end): chip protocol, meter,
  /// counters, PROCHOT/THERMTRIP ladder, jiffy accounting.
  void post_range(std::size_t begin, std::size_t end, Seconds dt);

  /// The engine's per-node sensor sampling loop over the contiguous schedule
  /// array; returns the number of samples taken.
  std::uint64_t sample_range(std::size_t begin, std::size_t end, SimTime after);

  // ---- record-phase helpers (Engine::record_sample's fast path) ----

  /// Post-solve die temperatures, contiguous across slots.
  [[nodiscard]] const double* die_temp_row() const { return die_temp_; }

  /// Node::wall_power() — memo-aware CPU power (recomputes and stores the
  /// memo exactly like CpuDevice::power() when a controller invalidated it)
  /// plus fan power, through the meter's display rounding.
  [[nodiscard]] double wall_power_w(std::size_t i);

  /// cpufreq-visible (OS-selected) frequency for slot i, GHz.
  [[nodiscard]] double nominal_freq_ghz(std::size_t i) const {
    return fleet_.cpu().params.pstates[pstate_[i]].frequency.value();
  }

 private:
  /// CpuDevice::power() on slot i: the memoized power kernel on its row.
  double cpu_power_w(const hw::CpuKernel& cpu, std::size_t i);

  FleetState& fleet_;
  std::vector<Node*> nodes_;

  // Column data pointers, hoisted once (fixed for the fleet's lifetime).
  const double* die_temp_ = nullptr;
  double* die_power_ = nullptr;
  double* g_conv_ = nullptr;
  double* fan_duty_ = nullptr;
  double* fan_rpm_ = nullptr;
  const std::uint8_t* fan_stuck_ = nullptr;
  const double* sensor_truth_ = nullptr;
  double* sensor_last_ = nullptr;
  Rng* sensor_rng_ = nullptr;
  const std::uint8_t* sensor_stuck_ = nullptr;
  std::uint8_t* sensor_has_reading_ = nullptr;
  const std::uint32_t* pstate_ = nullptr;
  double* cpu_util_ = nullptr;
  double* cpu_die_temp_ = nullptr;
  double* power_cache_ = nullptr;
  std::uint8_t* power_valid_ = nullptr;
  std::uint64_t* power_gen_ = nullptr;
  std::uint8_t* throttled_ = nullptr;
  std::uint64_t* aperf_ = nullptr;
  std::uint64_t* mperf_ = nullptr;
  std::uint64_t* energy_uj_ = nullptr;
  double* aperf_frac_ = nullptr;
  double* mperf_frac_ = nullptr;
  double* energy_frac_ = nullptr;
  const double* inj_dyn_ = nullptr;
  const double* inj_leak_ = nullptr;
  const double* inj_thr_ = nullptr;
  const std::uint64_t* inj_gen_ = nullptr;
  std::int8_t* chip_temp_reg_ = nullptr;
  std::uint16_t* chip_tach_ = nullptr;
  double* chip_last_rpm_ = nullptr;
  const double* chip_out_duty_ = nullptr;
  double* meter_energy_ = nullptr;
  double* meter_elapsed_ = nullptr;
  double* airflow_ = nullptr;
  std::uint8_t* airflow_set_ = nullptr;
  double* util_ = nullptr;
  std::uint64_t* busy_jiffies_ = nullptr;
  std::uint64_t* total_jiffies_ = nullptr;
  double* jiffy_rem_busy_ = nullptr;
  double* jiffy_rem_total_ = nullptr;
  std::int32_t* prochot_events_ = nullptr;
  double* prochot_seconds_ = nullptr;
  std::uint8_t* halted_ = nullptr;
  const double* bmc_duty_ = nullptr;
  const std::uint8_t* bmc_set_ = nullptr;
  PeriodicSchedule* sample_schedule_ = nullptr;
};

}  // namespace thermctl::cluster
