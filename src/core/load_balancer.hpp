// Thermal load migration — the in-band technique family of the paper's
// related work (Powell's heat-and-run, Heath's Mercury/Freon, Mukherjee's
// datacenter placement), integrated with this framework's out-of-band plane:
// the balancer reads every node's temperature over IPMI (it runs on a
// management host, not on the compute nodes) and moves ranks from hot nodes
// to idle spares.
//
// Migration is strong medicine: the moved rank stalls for the
// checkpoint/transfer time and, through barriers, the whole job waits. The
// balancer therefore acts only on sustained imbalance and honours a cooldown
// between moves.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace thermctl::core {

struct LoadBalancerConfig {
  /// Act when (hottest hosting node) − (coolest free node) exceeds this.
  CelsiusDelta imbalance_threshold{6.0};
  /// ...and only when the hot node is genuinely hot. A busy node is always
  /// warmer than an idle spare; migration is for *abnormal* heat (failing
  /// fan, hot pocket), not for chasing the load-vs-idle equilibrium.
  Celsius min_hot_temp{55.0};
  /// Consecutive evaluations the imbalance must persist.
  int consistency_evals = 3;
  /// Checkpoint + transfer stall charged to the migrated rank.
  Seconds migration_cost{4.0};
  /// Minimum simulated time between migrations.
  Seconds cooldown{30.0};
};

struct MigrationEvent {
  double time_s = 0.0;
  std::size_t rank = 0;
  std::size_t from_node = 0;
  std::size_t to_node = 0;
  double hot_temp = 0.0;
  double cool_temp = 0.0;
};

class ThermalLoadBalancer {
 public:
  ThermalLoadBalancer(cluster::Cluster& cluster, cluster::Engine& engine,
                      LoadBalancerConfig config = {});

  /// Balancer tick (management-host cadence, e.g. every 5 s).
  void on_tick(SimTime now);

  [[nodiscard]] const std::vector<MigrationEvent>& events() const { return events_; }

 private:
  /// BMC sensor number carrying the CPU temperature (Node registers it as
  /// sensor 1).
  static constexpr std::uint8_t kCpuTempSensor = 1;

  cluster::Cluster& cluster_;
  cluster::Engine& engine_;
  LoadBalancerConfig config_;
  int consecutive_ = 0;
  double last_migration_s_ = -1e9;
  std::vector<MigrationEvent> events_;
};

}  // namespace thermctl::core
