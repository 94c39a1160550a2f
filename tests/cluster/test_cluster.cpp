#include "cluster/cluster.hpp"

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

TEST(ClusterDeath, ZeroNodesAborts) {
  EXPECT_DEATH(Cluster(0, NodeParams{}), "node");
}

TEST(ClusterDeath, PerNodeObjectLayoutIsGone) {
  EXPECT_DEATH(Cluster(2, NodeParams{}, false), "fleet-backed");
}

}  // namespace
}  // namespace thermctl::cluster
