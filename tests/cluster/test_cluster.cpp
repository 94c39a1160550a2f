#include "cluster/cluster.hpp"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

namespace thermctl::cluster {
namespace {

NodeParams quiet() {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.0;
  return p;
}

TEST(Cluster, BuildsRequestedNodeCount) {
  Cluster cluster{4, quiet()};
  EXPECT_EQ(cluster.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).id(), static_cast<int>(i));
  }
}

TEST(Cluster, NodesGetDistinctNoiseSeeds) {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.3;
  Cluster cluster{2, p};
  // Same true temperature, different noise streams.
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    const double a = cluster.node(0).sample_sensor().value();
    const double b = cluster.node(1).sample_sensor().value();
    if (a != b) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 5);
}

TEST(Cluster, IpmiNetworkReachesAllNodes) {
  Cluster cluster{3, quiet()};
  EXPECT_EQ(cluster.ipmi().nodes().size(), 3u);
  sysfs::SensorReading reading;
  for (int n = 0; n < 3; ++n) {
    cluster.node(static_cast<std::size_t>(n)).sample_sensor();
    EXPECT_EQ(cluster.ipmi().get_sensor_reading(n, 1, reading), sysfs::IpmiCompletion::kOk);
  }
}

TEST(Cluster, HotSpotRaisesOneNodesTemperature) {
  Cluster cluster{4, quiet()};
  cluster.set_inlet_temperature(2, Celsius{40.0});
  cluster.settle_all();
  const double hot = cluster.node(2).die_temperature().value();
  const double normal = cluster.node(0).die_temperature().value();
  EXPECT_GT(hot, normal + 8.0);
}

TEST(Cluster, TotalPowerSumsNodes) {
  Cluster cluster{4, quiet()};
  const double total = cluster.total_power().value();
  const double one = cluster.node(0).meter().read().value();
  EXPECT_NEAR(total, 4.0 * one, 8.0);
}

TEST(Cluster, IpmiFanOverridePerNode) {
  Cluster cluster{2, quiet()};
  ASSERT_EQ(cluster.ipmi().set_fan_override(1, DutyCycle{95.0}), sysfs::IpmiCompletion::kOk);
  for (int i = 0; i < 100; ++i) {
    cluster.step(Seconds{0.05});
  }
  EXPECT_NEAR(cluster.node(1).fan().duty().percent(), 95.0, 0.5);
  EXPECT_LT(cluster.node(0).fan().duty().percent(), 50.0);
}

/// Uneven nodes: loads, inlets and one BMC fan override differ, so the
/// nodes' packages march with different steps and stop at different
/// iterations of the batched settle.
void make_uneven(Cluster& cluster) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).set_utilization(Utilization{0.1 * static_cast<double>(i % 11)});
    cluster.set_inlet_temperature(i, Celsius{22.0 + static_cast<double>(i % 7)});
  }
  ASSERT_EQ(cluster.ipmi().set_fan_override(1, DutyCycle{90.0}), sysfs::IpmiCompletion::kOk);
}

#define EXPECT_SAME_BITS(a, b, i) \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << "node " << (i)

TEST(Cluster, SettleAllMatchesPerNodeSettleOnEveryObservable) {
  // 300 nodes span two 256-column blocks of the batched march. Default
  // params keep sensor noise on, so the sensor's RNG stream is observable.
  constexpr std::size_t kNodes = 300;
  const NodeParams params;
  Cluster together{kNodes, params};
  Cluster alone{kNodes, params};
  make_uneven(together);
  make_uneven(alone);
  together.settle_all();
  for (std::size_t i = 0; i < kNodes; ++i) {
    alone.node(i).settle();
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    Node& a = together.node(i);
    Node& b = alone.node(i);
    EXPECT_SAME_BITS(a.die_temperature().value(), b.die_temperature().value(), i);
    EXPECT_SAME_BITS(a.package().heatsink_temperature().value(),
                     b.package().heatsink_temperature().value(), i);
    EXPECT_SAME_BITS(a.sensor_reading().value(), b.sensor_reading().value(), i);
    EXPECT_SAME_BITS(a.fan().duty().percent(), b.fan().duty().percent(), i);
    EXPECT_SAME_BITS(a.fan().rpm().value(), b.fan().rpm().value(), i);
    EXPECT_SAME_BITS(a.wall_power().value(), b.wall_power().value(), i);
    EXPECT_SAME_BITS(a.effective_frequency().value(), b.effective_frequency().value(), i);
    // The noise stream continues from the same point.
    EXPECT_SAME_BITS(a.sample_sensor().value(), b.sample_sensor().value(), i);
  }
  // The next physics steps agree too, stale substep plans included.
  for (int step = 0; step < 20; ++step) {
    together.step(Seconds{0.05});
    alone.step(Seconds{0.05});
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_SAME_BITS(together.node(i).die_temperature().value(),
                     alone.node(i).die_temperature().value(), i);
  }
}

TEST(ClusterDeath, ZeroNodesAborts) {
  EXPECT_DEATH(Cluster(0, NodeParams{}), "node");
}

TEST(ClusterDeath, PerNodeObjectLayoutIsGone) {
  EXPECT_DEATH(Cluster(2, NodeParams{}, false), "fleet-backed");
}

}  // namespace
}  // namespace thermctl::cluster
