// FleetState: every node's hot state lives in the fleet's SoA arrays, and
// the Node objects are views over them.
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/fleet_state.hpp"

namespace thermctl::cluster {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(FleetState, DeviceStateLivesInFleetArrays) {
  constexpr std::size_t kNodes = 3;
  NodeParams params;
  Cluster rack{kNodes, params};
  FleetState* fleet = rack.fleet();
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->size(), kNodes);

  // Writing through the Node API must be visible in the SoA slot and vice
  // versa — the device is a view, not a copy.
  rack.node(1).fan().set_duty(DutyCycle{63.0});
  EXPECT_EQ(*fleet->fan_duty_slot(1), 63.0);
  *fleet->fan_duty_slot(1) = 28.0;
  EXPECT_EQ(rack.node(1).fan().duty().percent(), 28.0);

  rack.node(2).sample_sensor();
  EXPECT_EQ(*fleet->sensor_last_slot(2), rack.node(2).sensor_reading().value());

  // The batch column is the package's temperature storage.
  const auto& wiring = fleet->wiring();
  EXPECT_EQ(bits(fleet->batch().temperature(0, wiring.die).value()),
            bits(rack.node(0).die_temperature().value()));
  EXPECT_TRUE(rack.node(0).package().fleet_backed());
}

TEST(FleetState, MemoryFootprintIsFlatPerNode) {
  NodeParams params;
  FleetState small{params.package, 64};
  FleetState large{params.package, 4096};
  const double small_per_node = static_cast<double>(small.memory_bytes()) / 64.0;
  const double large_per_node = static_cast<double>(large.memory_bytes()) / 4096.0;
  // Shared structure amortizes: per-node bytes must not grow with the fleet,
  // and the hot state is on the order of a hundred bytes, not kilobytes.
  EXPECT_LE(large_per_node, small_per_node * 1.1);
  EXPECT_LT(large_per_node, 512.0);
}

}  // namespace
}  // namespace thermctl::cluster
