#include "cluster/fleet_sweep.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::cluster {

FleetSweep::FleetSweep(FleetState& fleet, const std::vector<Node*>& nodes)
    : fleet_(fleet), nodes_(nodes) {
  THERMCTL_ASSERT(nodes_.size() == fleet_.size(), "sweep needs one node per fleet slot");

  thermal::PackageColumns& package = fleet_.batch();
  die_temp_ = package.t_die.data();
  die_power_ = package.p_die.data();
  g_conv_ = package.g_conv.data();
  airflow_ = package.cfm.data();
  airflow_set_ = package.set.data();

  hw::FanColumns& fan = fleet_.fan();
  fan_duty_ = fan.duty_pct.data();
  fan_rpm_ = fan.rpm.data();
  fan_stuck_ = fan.stuck.data();
  hw::SensorColumns& sensor = fleet_.sensor();
  sensor_truth_ = sensor.truth;
  sensor_last_ = sensor.last_degc.data();
  sensor_rng_ = sensor.rng.data();
  sensor_stuck_ = sensor.stuck.data();
  sensor_has_reading_ = sensor.has_reading.data();
  hw::CpuColumns& cpu_cols = fleet_.cpu();
  pstate_ = cpu_cols.pstate.data();
  cpu_util_ = cpu_cols.utilization.data();
  cpu_die_temp_ = cpu_cols.die_temperature.data();
  power_cache_ = cpu_cols.power_cache.data();
  power_valid_ = cpu_cols.power_valid.data();
  power_gen_ = cpu_cols.power_gen.data();
  throttled_ = cpu_cols.throttled.data();
  aperf_ = cpu_cols.aperf.data();
  mperf_ = cpu_cols.mperf.data();
  energy_uj_ = cpu_cols.energy_uj.data();
  aperf_frac_ = cpu_cols.aperf_frac.data();
  mperf_frac_ = cpu_cols.mperf_frac.data();
  energy_frac_ = cpu_cols.energy_frac.data();
  inj_dyn_ = cpu_cols.injector.dynamic_factor.data();
  inj_leak_ = cpu_cols.injector.leakage_factor.data();
  inj_thr_ = cpu_cols.injector.throughput_factor.data();
  inj_gen_ = cpu_cols.injector.generation.data();
  hw::ChipColumns& chip = fleet_.chip();
  chip_temp_reg_ = chip.temp_remote1.data();
  chip_tach_ = chip.tach1.data();
  chip_last_rpm_ = chip.last_measured_rpm.data();
  chip_out_duty_ = chip.output_duty_pct.data();
  meter_energy_ = fleet_.meter().energy_j.data();
  meter_elapsed_ = fleet_.meter().elapsed_s.data();
  NodeColumns& node = fleet_.node();
  util_ = node.util.data();
  busy_jiffies_ = node.busy_jiffies.data();
  total_jiffies_ = node.total_jiffies.data();
  jiffy_rem_busy_ = node.jiffy_rem_busy.data();
  jiffy_rem_total_ = node.jiffy_rem_total.data();
  prochot_events_ = node.prochot_events.data();
  prochot_seconds_ = node.prochot_seconds.data();
  halted_ = node.halted.data();
  bmc_duty_ = node.bmc_override_duty.data();
  bmc_set_ = node.bmc_override_set.data();
  sample_schedule_ = node.sample_schedule.data();
}

inline double FleetSweep::cpu_power_w(const hw::CpuKernel& cpu, std::size_t i) {
  return cpu.power_w(pstate_[i], throttled_[i], cpu_util_[i], cpu_die_temp_[i], inj_dyn_[i],
                     inj_leak_[i], inj_gen_[i], power_cache_[i], power_valid_[i], power_gen_[i]);
}

double FleetSweep::wall_power_w(std::size_t i) {
  const hw::PowerMeterParams& meter = fleet_.meter().params;
  const double dc_component =
      cpu_power_w(hw::CpuKernel{fleet_.cpu().params}, i) + fleet_.fan().params.power_w(fan_rpm_[i]);
  return meter.display_w(meter.ac_w(dc_component));
}

void FleetSweep::pre_range(std::size_t begin, std::size_t end, Seconds dt) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  const double dtv = dt.value();
  const hw::CpuKernel cpu{fleet_.cpu().params};
  const hw::FanParams fan = fleet_.fan().params;

  // Pass 1 — utilization and die-temperature latch (halted zeroing,
  // CpuDevice::set_utilization / set_die_temperature, which invalidate the
  // power memo).
  for (std::size_t i = begin; i < end; ++i) {
    if (halted_[i] != 0) {
      util_[i] = 0.0;
    }
    cpu_util_[i] = util_[i];
    cpu_die_temp_[i] = die_temp_[i];
    power_valid_[i] = 0;
  }

  // Pass 2 — fan duty latch + rotor dynamics: a first-order lag toward
  // the rotor target (a stuck rotor's is zero), via the exact discrete
  // update. The BMC override wins over the chip's PWM pin, as on real
  // servers. The smoothing factor is a function of dt alone, computed once
  // per range call.
  const double alpha = 1.0 - std::exp(-dtv / fan.rotor_tau.value());
  for (std::size_t i = begin; i < end; ++i) {
    const double duty = (bmc_set_[i] != 0) ? bmc_duty_[i] : chip_out_duty_[i];
    fan_duty_[i] = duty;
    const double target = (fan_stuck_[i] == 0) ? fan.target_rpm(duty) : 0.0;
    double rpm = fan_rpm_[i];
    rpm += (target - rpm) * alpha;
    if (rpm < 1.0 && target == 0.0) {
      rpm = 0.0;
    }
    fan_rpm_[i] = rpm;
  }

  // Pass 3 — CPU power into the package (PackageModel::set_cpu_power).
  // The memo was invalidated in pass 1, so live nodes recompute exactly like
  // CpuDevice::power(); a halted node feeds the 2 W trickle and leaves its
  // memo invalid (power() is never called for it).
  for (std::size_t i = begin; i < end; ++i) {
    die_power_[i] = (halted_[i] != 0) ? 2.0 : cpu_power_w(cpu, i);
  }

  // Pass 4 — airflow → convection conductance (PackageModel::set_airflow's
  // skip-if-unchanged memo; a settled rotor makes steady steps free).
  const thermal::ConvectionModel& convection = fleet_.batch().convection;
  for (std::size_t i = begin; i < end; ++i) {
    thermal::PackageColumns::apply_airflow(convection, fan.airflow_cfm(fan_rpm_[i]), airflow_[i],
                                           airflow_set_[i], g_conv_[i]);
  }
}

void FleetSweep::post_range(std::size_t begin, std::size_t end, Seconds dt) {
  const double dtv = dt.value();
  const hw::CpuKernel cpu{fleet_.cpu().params};
  const hw::FanParams fan = fleet_.fan().params;
  const hw::PowerMeterParams meter = fleet_.meter().params;
  const ProtectionParams protection = fleet_.node().protection;
  // Same arithmetic as `prochot - prochot_hysteresis` (Celsius - CelsiusDelta).
  const double prochot_release_c =
      protection.prochot.value() - protection.prochot_hysteresis.value();

  // Pass 1 — chip temperature register (Adt7467::set_measured_temperature's
  // early-out). Sub-degree drift never moves the int8 register; when it does
  // move, the register object re-runs the auto curve (and PWM mirror) itself.
  for (std::size_t i = begin; i < end; ++i) {
    const double die = die_temp_[i];
    if (hw::Adt7467::temp_to_reg(die) != chip_temp_reg_[i]) {
      nodes_[i]->fan_chip().set_measured_temperature(Celsius{die});
    }
  }

  // Pass 2 — chip tach latch (Adt7467::set_measured_rpm).
  for (std::size_t i = begin; i < end; ++i) {
    hw::Adt7467::latch_tach(fan_rpm_[i], chip_last_rpm_[i], chip_tach_[i]);
  }

  // Pass 3 — meter integration (the meter's AC draw, before display
  // rounding) + hardware counters (CpuDevice::advance_counters).
  // cpu_power_w resolves the memo exactly like CpuDevice::power(): valid
  // from pre for live nodes, recomputed here for halted ones (whose pre
  // phase skipped power()).
  for (std::size_t i = begin; i < end; ++i) {
    const double p_cpu = cpu_power_w(cpu, i);
    meter_energy_[i] += meter.ac_w(p_cpu + fan.power_w(fan_rpm_[i])) * dtv;
    meter_elapsed_[i] += dtv;
    cpu.advance_counters(dtv, cpu.effective_ghz(pstate_[i], throttled_[i]), cpu_util_[i],
                         inj_thr_[i], p_cpu, aperf_[i], aperf_frac_[i], mperf_[i],
                         mperf_frac_[i], energy_uj_[i], energy_frac_[i]);
  }

  // Pass 4 — PROCHOT accounting, the protection ladder and jiffy accounting.
  // prochot_seconds accrues on the *pre-protection* throttle state.
  for (std::size_t i = begin; i < end; ++i) {
    if (throttled_[i] != 0) {
      prochot_seconds_[i] += dtv;
    }
    const double die = die_temp_[i];
    if (protection.critical_enabled && die >= protection.critical.value() && halted_[i] == 0) {
      halted_[i] = 1;
      THERMCTL_LOG_WARN("node", "node %d THERMTRIP at %.1f C — halted", nodes_[i]->id(), die);
    }
    if (protection.prochot_enabled) {
      if (throttled_[i] == 0 && die >= protection.prochot.value()) {
        throttled_[i] = 1;
        power_valid_[i] = 0;  // set_thermal_throttle invalidates the memo
        ++prochot_events_[i];
        THERMCTL_LOG_INFO("node", "node %d PROCHOT asserted at %.1f C", nodes_[i]->id(), die);
      } else if (throttled_[i] != 0 && die <= prochot_release_c) {
        throttled_[i] = 0;
        power_valid_[i] = 0;
        THERMCTL_LOG_INFO("node", "node %d PROCHOT released at %.1f C", nodes_[i]->id(), die);
      }
    }

    hw::carry_add(util_[i] * dtv * 100.0, busy_jiffies_[i], jiffy_rem_busy_[i]);
    hw::carry_add(dtv * 100.0, total_jiffies_[i], jiffy_rem_total_[i]);
  }
}

std::uint64_t FleetSweep::sample_range(std::size_t begin, std::size_t end, SimTime after) {
  const hw::SensorParams sensor = fleet_.sensor().params;
  std::uint64_t samples = 0;
  for (std::size_t i = begin; i < end; ++i) {
    while (sample_schedule_[i].due(after)) {
      sensor.convert(sensor_truth_[i], sensor_rng_[i], sensor_last_[i], sensor_stuck_[i],
                     sensor_has_reading_[i]);
      ++samples;
    }
  }
  return samples;
}

}  // namespace thermctl::cluster
