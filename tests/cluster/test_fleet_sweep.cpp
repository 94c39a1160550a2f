// FleetSweep and the per-node object API are interchangeable mid-run: every
// formula the sweep shares with a device method is one kernel, run on the
// same cells, so after any step the devices read exactly what the sweep
// left behind, bit for bit.
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "solo_devices.hpp"

namespace thermctl::cluster {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Checks node `i` of `rack` against the sweep after a step. `throttle_moved`
/// says whether the protection ladder toggled PROCHOT in the step's post
/// pass: that changes the CPU's inputs after the pre pass fed the die cell.
void expect_device_api_consistent(Cluster& rack, std::size_t i, bool throttle_moved) {
  SCOPED_TRACE("node " + std::to_string(i));
  Node& node = rack.node(i);
  FleetState& fleet = *rack.fleet();
  hw::CpuDevice& cpu = node.cpu();

  // Re-latching the same utilization invalidates the power memo without
  // changing an input, so each read below re-runs its own code path.
  if (!node.halted() && !throttle_moved) {
    cpu.set_utilization(cpu.utilization());
    EXPECT_EQ(bits(fleet.batch().p_die[i]), bits(cpu.power().value()));
  }
  cpu.set_utilization(cpu.utilization());
  const double sweep_wall = rack.sweep()->wall_power_w(i);
  cpu.set_utilization(cpu.utilization());
  EXPECT_EQ(bits(sweep_wall), bits(node.wall_power().value()));

  hw::SoloChip reference;
  reference.set_measured_rpm(node.fan().rpm());
  for (const std::uint8_t reg : {hw::Adt7467::kRegTach1Low, hw::Adt7467::kRegTach1High}) {
    EXPECT_EQ(node.fan_chip().read_register(reg), reference.read_register(reg));
  }

  EXPECT_EQ(bits(node.package().airflow().value()), bits(node.fan().airflow().value()));
}

TEST(FleetSweep, StepLeavesDeviceApiConsistent) {
  constexpr std::size_t kNodes = 6;
  NodeParams params;
  params.sensor.noise_sigma_degc = 0.0;
  Cluster rack{kNodes, params};
  for (std::size_t i = 0; i < kNodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.settle_all();

  // Each scenario is applied on top of the ones before it, then stepped.
  const std::vector<std::pair<std::string, std::function<void()>>> scenarios{
      {"mixed loads",
       [&] {
         for (std::size_t i = 0; i < kNodes; ++i) {
           rack.node(i).set_utilization(Utilization{0.35 + 0.13 * static_cast<double>(i)});
         }
       }},
      // A scorching inlet drives node 0 through the whole ladder to THERMTRIP.
      {"THERMTRIP", [&] { rack.set_inlet_temperature(0, Celsius{150.0}); }},
      // A hot inlet holds node 1 around the PROCHOT threshold.
      {"PROCHOT", [&] { rack.set_inlet_temperature(1, Celsius{72.0}); }},
      {"BMC override",
       [&] { ASSERT_EQ(rack.ipmi().set_fan_override(2, DutyCycle{85.0}), sysfs::IpmiCompletion::kOk); }},
      {"stuck fan", [&] { rack.node(3).fan().inject_stuck_fault(); }},
      {"idle injection", [&] { rack.node(4).cpu().idle_injector().set_injection(0.3, 1); }},
  };
  constexpr int kStepsPerScenario = 600;  // 30 s
  std::vector<bool> throttled(kNodes);
  for (const auto& [name, apply] : scenarios) {
    SCOPED_TRACE(name);
    apply();
    for (int step = 0; step < kStepsPerScenario; ++step) {
      for (std::size_t i = 0; i < kNodes; ++i) {
        throttled[i] = rack.node(i).cpu().thermal_throttled();
      }
      rack.step(Seconds{0.05});
      for (std::size_t i = 0; i < kNodes; ++i) {
        expect_device_api_consistent(rack, i,
                                     throttled[i] != rack.node(i).cpu().thermal_throttled());
      }
      if (HasFailure()) {
        return;
      }
    }
  }
  // Every scenario took hold.
  EXPECT_TRUE(rack.node(0).halted());
  EXPECT_GT(rack.node(1).prochot_events(), 0);
  EXPECT_FALSE(rack.node(1).halted());
  EXPECT_EQ(rack.node(2).fan().duty().percent(), 85.0);
  EXPECT_EQ(rack.node(3).fan().rpm().value(), 0.0);
  EXPECT_LT(rack.node(4).cpu().idle_injector().throughput_factor(), 1.0);
}

}  // namespace
}  // namespace thermctl::cluster
