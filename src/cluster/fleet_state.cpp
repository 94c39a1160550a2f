#include "cluster/fleet_state.hpp"

namespace thermctl::cluster {

NodeColumns::NodeColumns(std::size_t n, const ProtectionParams& protection_params)
    : protection(protection_params) {
  size_columns(columns(*this), n);
}

FleetState::FleetState(const NodeParams& base, std::size_t count)
    : package_(count, base.package),
      cpu_(count, base.cpu),
      fan_(count, base.fan),
      chip_(count),
      meter_(count, base.meter),
      sensor_(count, base.sensor, package_.t_die.data()),
      node_(count, base.protection) {}

std::size_t FleetState::memory_bytes() const {
  return package_.memory_bytes() + cpu_.memory_bytes() + fan_.memory_bytes() +
         chip_.memory_bytes() + meter_.memory_bytes() + sensor_.memory_bytes() +
         node_.memory_bytes();
}

}  // namespace thermctl::cluster
