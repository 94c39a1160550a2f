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
  for (int i = 0; i < 4000 && !node.prochot_active(); ++i) {
    fleet.step(Seconds{0.05});
  }
  EXPECT_TRUE(node.prochot_active());
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
