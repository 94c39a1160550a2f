#include "cluster/fleet_state.hpp"

#include <type_traits>

#include "thermal/rc_network.hpp"

namespace thermctl::cluster {

namespace {

// The batch template comes from PackageModel::wire_network; its handles are
// the wiring every node's PackageModel view addresses its column through.
thermal::RcBatch make_batch(const thermal::PackageParams& package, std::size_t count,
                            thermal::PackageWiring* wiring_out) {
  thermal::RcNetwork tmpl;
  *wiring_out = thermal::PackageModel::wire_network(package, tmpl);
  return thermal::RcBatch{tmpl, count};
}

}  // namespace

NodeColumns::NodeColumns(std::size_t n, const ProtectionParams& protection_params)
    : protection(protection_params),
      util(n, 0.0),
      busy_jiffies(n, 0),
      total_jiffies(n, 0),
      jiffy_rem_busy(n, 0.0),
      jiffy_rem_total(n, 0.0),
      prochot_events(n, 0),
      prochot_seconds(n, 0.0),
      halted(n, 0),
      bmc_override_duty(n, 0.0),
      bmc_override_set(n, 0),
      sample_schedule(n) {}

FleetState::FleetState(const NodeParams& base, std::size_t count)
    : batch_(make_batch(base.package, count, &wiring_)),
      cpu_(count, base.cpu),
      fan_(count, base.fan),
      chip_(count),
      meter_(count, base.meter),
      sensor_(count, base.sensor, batch_.temperature_cell(0, wiring_.die)),
      airflow_(count, base.package.convection),
      node_(count, base.protection) {}

std::size_t FleetState::memory_bytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  const hw::CpuColumns& c = cpu_;
  const hw::InjectorColumns& inj = cpu_.injector;
  const NodeColumns& n = node_;
  return batch_.memory_bytes() + bytes(fan_.duty_pct) + bytes(fan_.rpm) + bytes(fan_.stuck) +
         bytes(sensor_.last_degc) + bytes(sensor_.rng) + bytes(sensor_.stuck) +
         bytes(sensor_.has_reading) + bytes(c.pstate) + bytes(c.utilization) +
         bytes(c.die_temperature) + bytes(c.power_cache) + bytes(c.power_valid) +
         bytes(c.power_gen) + bytes(c.throttled) + bytes(c.transitions) + bytes(c.aperf) +
         bytes(c.mperf) + bytes(c.energy_uj) + bytes(c.aperf_frac) + bytes(c.mperf_frac) +
         bytes(c.energy_frac) + bytes(inj.dynamic_factor) + bytes(inj.leakage_factor) +
         bytes(inj.throughput_factor) + bytes(inj.generation) + bytes(chip_.temp_remote1) +
         bytes(chip_.tach1) + bytes(chip_.last_measured_rpm) + bytes(chip_.output_duty_pct) +
         bytes(meter_.energy_j) + bytes(meter_.elapsed_s) + bytes(airflow_.cfm) +
         bytes(airflow_.set) + bytes(n.util) + bytes(n.busy_jiffies) + bytes(n.total_jiffies) +
         bytes(n.jiffy_rem_busy) + bytes(n.jiffy_rem_total) + bytes(n.prochot_events) +
         bytes(n.prochot_seconds) + bytes(n.halted) + bytes(n.bmc_override_duty) +
         bytes(n.bmc_override_set) + bytes(n.sample_schedule);
}

}  // namespace thermctl::cluster
