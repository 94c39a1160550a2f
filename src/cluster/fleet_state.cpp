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
    : protection(protection_params) {
  size_columns(columns(*this), n);
}

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
  return batch_.memory_bytes() + cpu_.memory_bytes() + fan_.memory_bytes() +
         chip_.memory_bytes() + meter_.memory_bytes() + sensor_.memory_bytes() +
         airflow_.memory_bytes() + node_.memory_bytes();
}

}  // namespace thermctl::cluster
