#include "thermal/package_model.hpp"

#include "common/assert.hpp"

namespace thermctl::thermal {

PackageWiring PackageModel::wire_network(const PackageParams& params, RcNetwork& net) {
  // Build the three-node chain. Initial temperatures start at ambient; callers
  // that want a hot start use settle() after setting power/airflow.
  const ConvectionModel convection{params.convection};
  PackageWiring w;
  w.die = net.add_node("die", params.c_die, params.ambient);
  w.heatsink = net.add_node("heatsink", params.c_heatsink, params.ambient);
  w.ambient = net.add_fixed_node("ambient", params.ambient);
  w.die_hs = net.add_edge(w.die, w.heatsink, params.r_die_heatsink);
  w.hs_amb = net.add_edge(w.heatsink, w.ambient, convection.still_air_resistance());
  return w;
}

PackageModel::PackageModel(const PackageParams& params, const PackageWiring& wiring,
                           RcBatch& batch, AirflowColumns& airflow, std::size_t slot)
    : params_(params),
      batch_(batch),
      airflow_(airflow),
      slot_(slot),
      wiring_(wiring),
      die_power_cell_(batch.power_cell(slot, wiring.die)),
      die_temp_cell_(batch.temperature_cell(slot, wiring.die)) {
  THERMCTL_ASSERT(slot < airflow.cfm.size(), "column slot out of range");
}

void PackageModel::set_ambient(Celsius t) {
  params_.ambient = t;
  batch_.set_fixed_temperature(slot_, wiring_.ambient, t);
}

Celsius PackageModel::steady_state_die(Watts p, Cfm v) const {
  // In steady state all die power flows through both resistances in series.
  const double r_total =
      params_.r_die_heatsink.value() + airflow_.convection.resistance(v).value();
  return Celsius{params_.ambient.value() + p.value() * r_total};
}

}  // namespace thermctl::thermal
