#include "core/load_balancer.hpp"

#include "common/log.hpp"
#include "sysfs/ipmi.hpp"

namespace thermctl::core {

ThermalLoadBalancer::ThermalLoadBalancer(cluster::Cluster& cluster, cluster::Engine& engine,
                                         LoadBalancerConfig config)
    : cluster_(cluster), engine_(engine), config_(config) {}

void ThermalLoadBalancer::on_tick(SimTime now) {
  if (now.seconds() - last_migration_s_ < config_.cooldown.value()) {
    return;
  }

  // Survey the rack over the out-of-band plane.
  double hot_temp = -1e9;
  double cool_temp = 1e9;
  std::size_t hot_node = 0;
  std::size_t cool_node = 0;
  std::size_t hot_rank = 0;
  bool have_hot = false;
  bool have_cool = false;
  for (int id : cluster_.ipmi().nodes()) {
    sysfs::SensorReading reading;
    if (cluster_.ipmi().get_sensor_reading(id, kCpuTempSensor, reading) !=
        sysfs::IpmiCompletion::kOk) {
      continue;  // unreachable BMC: skip, don't stall the survey
    }
    const auto node_index = static_cast<std::size_t>(id);
    const auto rank = engine_.rank_on_node(node_index);
    if (rank.has_value()) {
      if (reading.value > hot_temp) {
        hot_temp = reading.value;
        hot_node = node_index;
        hot_rank = *rank;
        have_hot = true;
      }
    } else if (!cluster_.node(node_index).halted()) {
      if (reading.value < cool_temp) {
        cool_temp = reading.value;
        cool_node = node_index;
        have_cool = true;
      }
    }
  }

  if (!have_hot || !have_cool || hot_temp < config_.min_hot_temp.value() ||
      hot_temp - cool_temp < config_.imbalance_threshold.value()) {
    consecutive_ = 0;
    return;
  }
  if (++consecutive_ < config_.consistency_evals) {
    return;
  }
  consecutive_ = 0;

  if (engine_.migrate_rank(hot_rank, cool_node, config_.migration_cost)) {
    last_migration_s_ = now.seconds();
    events_.push_back(
        MigrationEvent{now.seconds(), hot_rank, hot_node, cool_node, hot_temp, cool_temp});
    THERMCTL_LOG_INFO("balancer", "t=%.1fs migrated rank %zu: node %zu (%.1f C) -> %zu (%.1f C)",
                      now.seconds(), hot_rank, hot_node, hot_temp, cool_node, cool_temp);
  }
}

}  // namespace thermctl::core
