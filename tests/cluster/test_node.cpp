#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

namespace thermctl::cluster {
namespace {

NodeParams quiet_sensor_params() {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.0;
  return p;
}

// A node is a fleet slot: each test runs a fleet of one and steps it through
// Cluster::step, the same code the engine's shards run.

TEST(Node, BootsNearAmbientAndProbed) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  EXPECT_EQ(node.id(), 0);
  EXPECT_NEAR(node.die_temperature().value(), 28.0, 2.0);
  EXPECT_TRUE(node.fan_driver().probed());
}

TEST(Node, SysfsPlanesExist) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  EXPECT_TRUE(node.vfs().exists("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"));
  EXPECT_TRUE(node.vfs().exists("/sys/class/hwmon/hwmon0/temp1_input"));
}

TEST(Node, FullLoadHeatsUp) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.02});
  node.settle();
  const double idle = node.die_temperature().value();
  node.set_utilization(Utilization{1.0});
  for (int i = 0; i < 600; ++i) {  // 30 s
    fleet.step(Seconds{0.05});
  }
  EXPECT_GT(node.die_temperature().value(), idle + 8.0);
}

TEST(Node, SettleAtIdleIsBelowStaticCurveTmin) {
  // The paper platform idles below 38 °C so the static curve sits at PWMmin.
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.02});
  node.settle();
  EXPECT_LT(node.die_temperature().value(), 38.0);
  EXPECT_GT(node.die_temperature().value(), 28.0);
}

TEST(Node, ChipAutoModeDrivesFanWithTemperature) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.02});
  node.settle();
  const double idle_duty = node.fan().duty().percent();
  node.set_utilization(Utilization{1.0});
  for (int i = 0; i < 2000; ++i) {  // 100 s
    fleet.step(Seconds{0.05});
  }
  EXPECT_GT(node.fan().duty().percent(), idle_duty + 5.0);
}

TEST(Node, SensorSampleScheduleIsFourHz) {
  NodeParams p = quiet_sensor_params();
  Cluster fleet{1, p};
  Node& node = fleet.node(0);
  EXPECT_EQ(node.sample_schedule().period_us(), 250000);
}

TEST(Node, JiffyAccountingTracksUtilization) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.5});
  for (int i = 0; i < 200; ++i) {  // 10 s
    fleet.step(Seconds{0.05});
  }
  EXPECT_NEAR(static_cast<double>(node.total_jiffies()), 1000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(node.busy_jiffies()), 500.0, 2.0);
}

TEST(Node, ProchotAssertsAboveThresholdAndThrottles) {
  NodeParams p = quiet_sensor_params();
  p.protection.prochot = Celsius{50.0};  // low threshold to force it
  Cluster fleet{1, p};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{1.0});
  // Pin the fan low via BMC override so the node overheats.
  node.bmc().set_fan_override(DutyCycle{1.0});
  for (int i = 0; i < 4000 && !node.cpu().thermal_throttled(); ++i) {
    fleet.step(Seconds{0.05});
  }
  EXPECT_TRUE(node.cpu().thermal_throttled());
  EXPECT_GE(node.prochot_events(), 1);
  EXPECT_DOUBLE_EQ(node.effective_frequency().value(), 1.0);
  // The OS-visible P-state is untouched.
  EXPECT_DOUBLE_EQ(node.cpu().frequency().value(), 2.4);
}

TEST(Node, BmcFanOverrideWins) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  ASSERT_EQ(node.bmc().set_fan_override(DutyCycle{90.0}), sysfs::IpmiCompletion::kOk);
  for (int i = 0; i < 100; ++i) {
    fleet.step(Seconds{0.05});
  }
  EXPECT_NEAR(node.fan().duty().percent(), 90.0, 0.5);
  // Release the override: chip resumes control.
  ASSERT_EQ(node.bmc().set_fan_override(std::nullopt), sysfs::IpmiCompletion::kOk);
  for (int i = 0; i < 100; ++i) {
    fleet.step(Seconds{0.05});
  }
  EXPECT_LT(node.fan().duty().percent(), 50.0);
}

// The fan rotor is stepped by FleetSweep only, so its dynamics are checked
// on a fleet of one, commanded through the BMC fan override the way an
// out-of-band controller drives it.

/// Node 0's fan with its rotor settled at `duty`.
hw::FanDevice& settled_fan(Cluster& fleet, double duty) {
  hw::FanDevice& fan = fleet.node(0).fan();
  fan.set_duty(DutyCycle{duty});
  fan.settle();
  return fan;
}

void override_fan(Cluster& fleet, double duty) {
  ASSERT_EQ(fleet.node(0).bmc().set_fan_override(DutyCycle{duty}),
            sysfs::IpmiCompletion::kOk);
}

TEST(NodeFan, RotorLagApproachesTarget) {
  Cluster fleet{1, quiet_sensor_params()};
  hw::FanDevice& fan = settled_fan(fleet, 0.0);
  ASSERT_EQ(fan.rpm().value(), 0.0);
  override_fan(fleet, 100.0);
  fleet.step(Seconds{0.8});  // one rotor time constant
  const double frac = fan.rpm().value() / 4300.0;
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.75);  // ~1 - 1/e
  fleet.step(Seconds{8.0});
  EXPECT_NEAR(fan.rpm().value(), 4300.0, 5.0);
}

TEST(NodeFan, SpinDownTakesTime) {
  Cluster fleet{1, quiet_sensor_params()};
  hw::FanDevice& fan = settled_fan(fleet, 100.0);
  override_fan(fleet, 10.0);
  fleet.step(Seconds{0.2});
  EXPECT_GT(fan.rpm().value(), 2500.0);  // still coasting
  fleet.step(Seconds{8.0});
  EXPECT_NEAR(fan.rpm().value(), fan.target_rpm(DutyCycle{10.0}).value(), 10.0);
}

TEST(NodeFan, StuckFaultCoastsToZeroAndIgnoresCommands) {
  Cluster fleet{1, quiet_sensor_params()};
  hw::FanDevice& fan = settled_fan(fleet, 80.0);
  fan.inject_stuck_fault();
  EXPECT_TRUE(fan.faulted());
  override_fan(fleet, 100.0);
  fleet.step(Seconds{10.0});
  EXPECT_EQ(fan.duty().percent(), 100.0);  // the command latches...
  EXPECT_DOUBLE_EQ(fan.rpm().value(), 0.0);  // ...but the rotor ignores it
}

TEST(NodeFan, ClearFaultRestoresOperation) {
  Cluster fleet{1, quiet_sensor_params()};
  hw::FanDevice& fan = fleet.node(0).fan();
  fan.inject_stuck_fault();
  override_fan(fleet, 100.0);
  fleet.step(Seconds{5.0});
  fan.clear_fault();
  fleet.step(Seconds{8.0});
  EXPECT_GT(fan.rpm().value(), 4000.0);
}

TEST(NodeFanDeath, RejectsNonPositiveStep) {
  Cluster fleet{1, quiet_sensor_params()};
  EXPECT_DEATH(fleet.step(Seconds{0.0}), "positive");
}

// The wall meter's integral is likewise advanced by FleetSweep only.

NodeParams lossless_meter_params() {
  NodeParams p = quiet_sensor_params();
  p.meter.base_load = Watts{50.0};
  p.meter.psu_efficiency = 1.0;
  return p;
}

/// Steps `fleet` for 10 s in 0.1 s steps.
void run_10s(Cluster& fleet) {
  for (int i = 0; i < 100; ++i) {
    fleet.step(Seconds{0.1});
  }
}

TEST(NodeMeter, EnergyIntegration) {
  Cluster fleet{1, lossless_meter_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{1.0});
  node.settle();
  double expected_j = 0.0;
  for (int i = 0; i < 100; ++i) {
    fleet.step(Seconds{0.1});
    // Each step integrates the DC draw its post-solve state reports.
    expected_j += (50.0 + node.dc_power().value()) * 0.1;
  }
  EXPECT_NEAR(node.meter().energy().value(), expected_j, 1e-6);
  EXPECT_NEAR(node.meter().average_power().value(), expected_j / 10.0, 1e-9);
  // Settled, the average is the displayed wall draw up to its resolution.
  EXPECT_NEAR(node.meter().average_power().value(), node.wall_power().value(), 0.5);
}

TEST(NodeMeter, AverageTracksVaryingLoad) {
  Cluster fleet{1, lossless_meter_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.0});
  node.settle();
  run_10s(fleet);
  const double idle_j = node.meter().energy().value();
  node.set_utilization(Utilization{1.0});
  run_10s(fleet);
  const double busy_j = node.meter().energy().value() - idle_j;
  EXPECT_GT(busy_j, 1.3 * idle_j);  // the load step shows in the integral
  // Two equal halves: the average is the mean of the halves' averages.
  EXPECT_NEAR(node.meter().average_power().value(), (idle_j / 10.0 + busy_j / 10.0) / 2.0,
              1e-9);
}

TEST(Node, BmcSensorsReportState) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  node.sample_sensor();
  sysfs::SensorReading reading;
  ASSERT_EQ(node.bmc().get_sensor_reading(1, reading), sysfs::IpmiCompletion::kOk);
  EXPECT_NEAR(reading.value, node.die_temperature().value(), 1.0);
  ASSERT_EQ(node.bmc().get_sensor_reading(3, reading), sysfs::IpmiCompletion::kOk);
  EXPECT_GT(reading.value, 40.0);  // system power includes base load
}

TEST(Node, CriticalHaltStopsWork) {
  NodeParams p = quiet_sensor_params();
  p.protection.prochot_enabled = false;  // let it run away
  p.protection.critical = Celsius{55.0};
  Cluster fleet{1, p};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{1.0});
  node.bmc().set_fan_override(DutyCycle{1.0});
  for (int i = 0; i < 8000 && !node.halted(); ++i) {
    fleet.step(Seconds{0.05});
  }
  ASSERT_TRUE(node.halted());
  node.set_utilization(Utilization{1.0});
  EXPECT_DOUBLE_EQ(node.utilization().fraction(), 0.0);  // forced idle
  node.clear_halt();
  node.set_utilization(Utilization{1.0});
  EXPECT_DOUBLE_EQ(node.utilization().fraction(), 1.0);
}

TEST(Node, PowerMeterIntegratesDuringSteps) {
  Cluster fleet{1, quiet_sensor_params()};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{1.0});
  for (int i = 0; i < 200; ++i) {
    fleet.step(Seconds{0.05});
  }
  EXPECT_GT(node.meter().energy().value(), 500.0);  // ~100 W * 10 s
  EXPECT_GT(node.meter().average_power().value(), 80.0);
  EXPECT_LT(node.meter().average_power().value(), 150.0);
}

}  // namespace
}  // namespace thermctl::cluster
