// Fleet-wide structure-of-arrays node state.
//
// A rack of N simulated machines is N node object graphs for the per-node
// API (sysfs, controllers), but none of them owns its hot state: FleetState
// keeps it in contiguous arrays owned in one place:
//
//   * temperatures, power inputs, edge conductances, capacitances — inside an
//     RcBatch built from the shared package wiring (capacitances and
//     adjacency stored once, per-node state in node-major rows);
//   * fan duty / RPM / stuck flag — flat arrays the FanDevices bind onto;
//   * last sensor readings — a flat array the ThermalSensors bind onto;
//   * the CPU operating point and counter block (CpuDevice::bind_state);
//   * the fan chip's latched measurement registers (Adt7467::bind_state);
//   * meter integrals, jiffy counters, protection state, sampling schedules —
//     everything FleetSweep touches every physics step.
//
// Every Node is a view over one slot: its PackageModel is one batch column,
// and its devices bind their state pointers into the arrays, so controllers
// and sysfs keep their per-node object API. The payoff is the engine's hot
// loop: one vectorized RcBatch::step_range call advances the whole fleet's
// thermals, and FleetSweep runs the per-node device/OS phases as contiguous
// array passes instead of N object-graph walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/sim_time.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "thermal/package_model.hpp"
#include "thermal/rc_batch.hpp"

namespace thermctl::cluster {

class FleetState {
 public:
  /// Allocates SoA state for `count` nodes sharing one package design.
  FleetState(const thermal::PackageParams& package, std::size_t count);

  [[nodiscard]] std::size_t size() const { return batch_.instance_count(); }

  /// The batched RC solver every node's PackageModel views into.
  [[nodiscard]] thermal::RcBatch& batch() { return batch_; }
  [[nodiscard]] const thermal::RcBatch& batch() const { return batch_; }
  /// Handles into the shared die—heatsink—ambient wiring.
  [[nodiscard]] const thermal::PackageWiring& wiring() const { return wiring_; }

  // ---- SoA slots device objects bind their state onto ----
  [[nodiscard]] double* fan_duty_slot(std::size_t i) { return &at(fan_duty_pct_, i); }
  [[nodiscard]] double* fan_rpm_slot(std::size_t i) { return &at(fan_rpm_, i); }
  [[nodiscard]] std::uint8_t* fan_stuck_slot(std::size_t i) { return &at(fan_stuck_, i); }
  [[nodiscard]] double* sensor_last_slot(std::size_t i) { return &at(sensor_last_, i); }

  [[nodiscard]] hw::CpuStateSlots cpu_slots(std::size_t i) {
    check(i);
    hw::CpuStateSlots s;
    s.pstate = &cpu_pstate_[i];
    s.utilization = &cpu_util_[i];
    s.die_temperature = &cpu_die_temp_[i];
    s.power_cache = &cpu_power_cache_[i];
    s.power_valid = &cpu_power_valid_[i];
    s.power_gen = &cpu_power_gen_[i];
    s.throttled = &cpu_throttled_[i];
    s.transitions = &cpu_transitions_[i];
    s.aperf = &cpu_aperf_[i];
    s.mperf = &cpu_mperf_[i];
    s.energy_uj = &cpu_energy_uj_[i];
    s.aperf_frac = &cpu_aperf_frac_[i];
    s.mperf_frac = &cpu_mperf_frac_[i];
    s.energy_frac = &cpu_energy_frac_[i];
    s.inj_dynamic_factor = &inj_dyn_factor_[i];
    s.inj_leakage_factor = &inj_leak_factor_[i];
    s.inj_throughput_factor = &inj_thr_factor_[i];
    s.inj_generation = &inj_generation_[i];
    return s;
  }

  [[nodiscard]] hw::ChipStateSlots chip_slots(std::size_t i) {
    check(i);
    hw::ChipStateSlots s;
    s.temp_remote1 = &chip_temp_reg_[i];
    s.tach1 = &chip_tach_[i];
    s.last_measured_rpm = &chip_last_rpm_[i];
    s.output_duty_pct = &chip_out_duty_pct_[i];
    return s;
  }

  [[nodiscard]] double* meter_energy_slot(std::size_t i) { return &at(meter_energy_j_, i); }
  [[nodiscard]] double* meter_elapsed_slot(std::size_t i) { return &at(meter_elapsed_s_, i); }

  [[nodiscard]] double* airflow_slot(std::size_t i) { return &at(airflow_cfm_, i); }
  [[nodiscard]] std::uint8_t* airflow_set_slot(std::size_t i) { return &at(airflow_set_, i); }

  // ---- node-level hot scalars (Node binds these at construction) ----
  [[nodiscard]] double* util_slot(std::size_t i) { return &at(util_, i); }
  [[nodiscard]] std::uint64_t* busy_jiffies_slot(std::size_t i) { return &at(busy_jiffies_, i); }
  [[nodiscard]] std::uint64_t* total_jiffies_slot(std::size_t i) {
    return &at(total_jiffies_, i);
  }
  [[nodiscard]] std::int32_t* prochot_events_slot(std::size_t i) {
    return &at(prochot_events_, i);
  }
  [[nodiscard]] double* prochot_seconds_slot(std::size_t i) { return &at(prochot_seconds_, i); }
  [[nodiscard]] std::uint8_t* halted_slot(std::size_t i) { return &at(halted_, i); }
  [[nodiscard]] double* bmc_override_duty_slot(std::size_t i) {
    return &at(bmc_override_duty_, i);
  }
  [[nodiscard]] std::uint8_t* bmc_override_set_slot(std::size_t i) {
    return &at(bmc_override_set_, i);
  }
  [[nodiscard]] PeriodicSchedule* sample_schedule_slot(std::size_t i) {
    THERMCTL_ASSERT(i < sample_schedule_.size(), "fleet slot out of range");
    return &sample_schedule_[i];
  }

  // ---- raw array access for FleetSweep's contiguous passes ----
  [[nodiscard]] double* fan_duty_data() { return fan_duty_pct_.data(); }
  [[nodiscard]] double* fan_rpm_data() { return fan_rpm_.data(); }
  [[nodiscard]] std::uint8_t* fan_stuck_data() { return fan_stuck_.data(); }
  [[nodiscard]] double* sensor_last_data() { return sensor_last_.data(); }
  [[nodiscard]] std::uint32_t* cpu_pstate_data() { return cpu_pstate_.data(); }
  [[nodiscard]] double* cpu_util_data() { return cpu_util_.data(); }
  [[nodiscard]] double* cpu_die_temp_data() { return cpu_die_temp_.data(); }
  [[nodiscard]] double* cpu_power_cache_data() { return cpu_power_cache_.data(); }
  [[nodiscard]] std::uint8_t* cpu_power_valid_data() { return cpu_power_valid_.data(); }
  [[nodiscard]] std::uint64_t* cpu_power_gen_data() { return cpu_power_gen_.data(); }
  [[nodiscard]] std::uint8_t* cpu_throttled_data() { return cpu_throttled_.data(); }
  [[nodiscard]] std::uint64_t* cpu_aperf_data() { return cpu_aperf_.data(); }
  [[nodiscard]] std::uint64_t* cpu_mperf_data() { return cpu_mperf_.data(); }
  [[nodiscard]] std::uint64_t* cpu_energy_data() { return cpu_energy_uj_.data(); }
  [[nodiscard]] double* cpu_aperf_frac_data() { return cpu_aperf_frac_.data(); }
  [[nodiscard]] double* cpu_mperf_frac_data() { return cpu_mperf_frac_.data(); }
  [[nodiscard]] double* cpu_energy_frac_data() { return cpu_energy_frac_.data(); }
  [[nodiscard]] double* inj_dyn_factor_data() { return inj_dyn_factor_.data(); }
  [[nodiscard]] double* inj_leak_factor_data() { return inj_leak_factor_.data(); }
  [[nodiscard]] double* inj_thr_factor_data() { return inj_thr_factor_.data(); }
  [[nodiscard]] std::uint64_t* inj_generation_data() { return inj_generation_.data(); }
  [[nodiscard]] std::int8_t* chip_temp_reg_data() { return chip_temp_reg_.data(); }
  [[nodiscard]] std::uint16_t* chip_tach_data() { return chip_tach_.data(); }
  [[nodiscard]] double* chip_last_rpm_data() { return chip_last_rpm_.data(); }
  [[nodiscard]] double* chip_out_duty_data() { return chip_out_duty_pct_.data(); }
  [[nodiscard]] double* meter_energy_data() { return meter_energy_j_.data(); }
  [[nodiscard]] double* meter_elapsed_data() { return meter_elapsed_s_.data(); }
  [[nodiscard]] double* airflow_data() { return airflow_cfm_.data(); }
  [[nodiscard]] std::uint8_t* airflow_set_data() { return airflow_set_.data(); }
  [[nodiscard]] double* util_data() { return util_.data(); }
  [[nodiscard]] std::uint64_t* busy_jiffies_data() { return busy_jiffies_.data(); }
  [[nodiscard]] std::uint64_t* total_jiffies_data() { return total_jiffies_.data(); }
  [[nodiscard]] double* jiffy_rem_busy_data() { return jiffy_rem_busy_.data(); }
  [[nodiscard]] double* jiffy_rem_total_data() { return jiffy_rem_total_.data(); }
  [[nodiscard]] std::int32_t* prochot_events_data() { return prochot_events_.data(); }
  [[nodiscard]] double* prochot_seconds_data() { return prochot_seconds_.data(); }
  [[nodiscard]] std::uint8_t* halted_data() { return halted_.data(); }
  [[nodiscard]] double* bmc_override_duty_data() { return bmc_override_duty_.data(); }
  [[nodiscard]] std::uint8_t* bmc_override_set_data() { return bmc_override_set_.data(); }
  [[nodiscard]] PeriodicSchedule* sample_schedule_data() { return sample_schedule_.data(); }

  /// Heap footprint of the fleet's hot state (bytes): the RC batch plus the
  /// device-state arrays. The scaling benchmark divides this by node count.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  template <typename T>
  [[nodiscard]] T& at(std::vector<T>& v, std::size_t i) {
    THERMCTL_ASSERT(i < v.size(), "fleet slot out of range");
    return v[i];
  }
  void check(std::size_t i) const {
    THERMCTL_ASSERT(i < cpu_util_.size(), "fleet slot out of range");
  }

  thermal::PackageWiring wiring_{};
  thermal::RcBatch batch_;
  // Fan rotor + fault flag.
  std::vector<double> fan_duty_pct_;
  std::vector<double> fan_rpm_;
  std::vector<std::uint8_t> fan_stuck_;
  // Sensor sample-and-hold.
  std::vector<double> sensor_last_;
  // CPU operating point, memoized power, counter block, injector mirrors.
  std::vector<std::uint32_t> cpu_pstate_;
  std::vector<double> cpu_util_;
  std::vector<double> cpu_die_temp_;
  std::vector<double> cpu_power_cache_;
  std::vector<std::uint8_t> cpu_power_valid_;
  std::vector<std::uint64_t> cpu_power_gen_;
  std::vector<std::uint8_t> cpu_throttled_;
  std::vector<std::uint64_t> cpu_transitions_;
  std::vector<std::uint64_t> cpu_aperf_;
  std::vector<std::uint64_t> cpu_mperf_;
  std::vector<std::uint64_t> cpu_energy_uj_;
  std::vector<double> cpu_aperf_frac_;
  std::vector<double> cpu_mperf_frac_;
  std::vector<double> cpu_energy_frac_;
  std::vector<double> inj_dyn_factor_;
  std::vector<double> inj_leak_factor_;
  std::vector<double> inj_thr_factor_;
  std::vector<std::uint64_t> inj_generation_;
  // ADT7467 latched measurements + PWM pin mirror.
  std::vector<std::int8_t> chip_temp_reg_;
  std::vector<std::uint16_t> chip_tach_;
  std::vector<double> chip_last_rpm_;
  std::vector<double> chip_out_duty_pct_;
  // Wall meter integrals.
  std::vector<double> meter_energy_j_;
  std::vector<double> meter_elapsed_s_;
  // Package airflow memo (PackageModel's convection early-out state).
  std::vector<double> airflow_cfm_;
  std::vector<std::uint8_t> airflow_set_;
  // Node-level hot scalars.
  std::vector<double> util_;
  std::vector<std::uint64_t> busy_jiffies_;
  std::vector<std::uint64_t> total_jiffies_;
  std::vector<double> jiffy_rem_busy_;
  std::vector<double> jiffy_rem_total_;
  std::vector<std::int32_t> prochot_events_;
  std::vector<double> prochot_seconds_;
  std::vector<std::uint8_t> halted_;
  std::vector<double> bmc_override_duty_;
  std::vector<std::uint8_t> bmc_override_set_;
  std::vector<PeriodicSchedule> sample_schedule_;
};

}  // namespace thermctl::cluster
