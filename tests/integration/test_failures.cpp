// Failure-injection integration tests: the emergency scenarios that motivate
// coordinated thermal control (fan failure → DVFS rescue; sensor and bus
// faults must degrade gracefully, not crash the control plane).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "workload/synthetic.hpp"

namespace thermctl::core {
namespace {

cluster::NodeParams quiet() {
  cluster::NodeParams p;
  p.sensor.noise_sigma_degc = 0.0;
  return p;
}

struct FailureRig {
  cluster::Cluster cluster{1, quiet()};
  cluster::EngineConfig cfg;
  workload::SegmentLoad burn = workload::gradual_profile(Seconds{600.0});

  explicit FailureRig(double horizon) {
    cfg.horizon = Seconds{horizon};
    cluster.node(0).set_utilization(Utilization{0.02});
    cluster.node(0).settle();
  }
};

TEST(Failures, FanStuckCausesProchotWithoutDvfs) {
  FailureRig rig{240.0};
  cluster::Engine engine{rig.cluster, rig.cfg};
  engine.set_node_load(0, &rig.burn);
  // Fan rotor seizes 10 s in; no in-band protection beyond PROCHOT.
  engine.add_periodic(Seconds{10.0}, [&rig](SimTime now) {
    if (now.seconds() <= 10.1) {
      rig.cluster.node(0).fan().inject_stuck_fault();
    }
  });
  const cluster::RunResult result = engine.run();
  EXPECT_GE(rig.cluster.node(0).prochot_events(), 1);
  EXPECT_GT(result.max_die_temp(), 70.0);
}

TEST(Failures, TdvfsRescuesFanFailure) {
  FailureRig rig{240.0};
  cluster::Engine engine{rig.cluster, rig.cfg};
  engine.set_node_load(0, &rig.burn);

  TdvfsConfig tc;
  tc.pp = PolicyParam{25};
  tc.threshold = Celsius{55.0};
  TdvfsDaemon daemon{rig.cluster.node(0).hwmon(), rig.cluster.node(0).cpufreq(), tc};
  engine.add_periodic(Seconds{0.25}, [&daemon](SimTime now) { daemon.on_sample(now); });
  engine.add_periodic(Seconds{10.0}, [&rig](SimTime now) {
    if (now.seconds() <= 10.1) {
      rig.cluster.node(0).fan().inject_stuck_fault();
    }
  });
  const cluster::RunResult result = engine.run();
  // The in-band path stepped in and held the die below PROCHOT.
  EXPECT_FALSE(daemon.events().empty());
  EXPECT_LT(rig.cluster.node(0).cpu().frequency().value(), 2.4);
  EXPECT_LT(result.max_die_temp(), 78.0);
  EXPECT_EQ(rig.cluster.node(0).prochot_events(), 0);
}

TEST(Failures, StuckSensorBlindsControllerButNothingCrashes) {
  FailureRig rig{120.0};
  cluster::Engine engine{rig.cluster, rig.cfg};
  engine.set_node_load(0, &rig.burn);

  FanControlConfig fc;
  fc.pp = PolicyParam{50};
  DynamicFanController fan{rig.cluster.node(0).hwmon(), fc};
  engine.add_periodic(Seconds{0.25}, [&fan](SimTime now) { fan.on_sample(now); });
  // Sensor freezes at its idle reading 5 s in.
  engine.add_periodic(Seconds{5.0}, [&rig](SimTime now) {
    if (now.seconds() <= 5.1) {
      rig.cluster.node(0).sensor().inject_stuck_fault();
    }
  });
  const cluster::RunResult result = engine.run();
  // The frozen reading shows no variation, so all retargets happened during
  // the first 5 live seconds; afterwards the controller is blind and the
  // die drifts upward unchecked.
  EXPECT_LE(fan.retarget_count(), 10u);
  EXPECT_GT(result.max_die_temp(), 55.0);
  // The blind controller's duty is frozen: the last two recorded duty
  // samples are identical.
  const auto& duty = result.nodes[0].duty;
  ASSERT_GE(duty.size(), 2u);
  EXPECT_DOUBLE_EQ(duty.back(), duty[duty.size() - 2]);
}

TEST(Failures, I2cBusFaultDoesNotCrashControlLoop) {
  FailureRig rig{60.0};
  cluster::Engine engine{rig.cluster, rig.cfg};
  engine.set_node_load(0, &rig.burn);

  FanControlConfig fc;
  fc.pp = PolicyParam{25};
  DynamicFanController fan{rig.cluster.node(0).hwmon(), fc};
  engine.add_periodic(Seconds{0.25}, [&fan](SimTime now) { fan.on_sample(now); });
  engine.add_periodic(Seconds{5.0}, [&rig](SimTime now) {
    if (now.seconds() <= 5.1) {
      rig.cluster.node(0).i2c().inject_bus_fault();
    }
  });
  const cluster::RunResult result = engine.run();
  (void)result;  // completing the run without aborting is the assertion
  SUCCEED();
}

TEST(Failures, ThermtripHaltsNodeAndWorkStops) {
  cluster::NodeParams p = quiet();
  p.protection.prochot_enabled = false;
  p.protection.critical = Celsius{60.0};
  cluster::Cluster cluster{1, p};
  cluster.node(0).set_utilization(Utilization{0.02});
  cluster.node(0).settle();
  cluster::EngineConfig cfg;
  cfg.horizon = Seconds{300.0};
  cluster::Engine engine{cluster, cfg};
  const auto burn = workload::gradual_profile(Seconds{600.0});
  engine.set_node_load(0, &burn);
  // Pin the fan to nothing so the node cooks.
  cluster.node(0).bmc().set_fan_override(DutyCycle{1.0});
  const cluster::RunResult result = engine.run();
  EXPECT_TRUE(cluster.node(0).halted());
  // After the halt, power drops to trickle and temperature decays.
  EXPECT_LT(result.nodes[0].util.back(), 0.05);
  EXPECT_LT(result.nodes[0].die_temp.back(), 60.0);
}

TEST(Failures, BmcStaysReachableWhileNodeHalted) {
  // The out-of-band plane must survive an in-band death — its whole point.
  cluster::NodeParams p = quiet();
  p.protection.prochot_enabled = false;
  p.protection.critical = Celsius{55.0};
  cluster::Cluster cluster{1, p};
  cluster.node(0).bmc().set_fan_override(DutyCycle{1.0});
  cluster.node(0).set_utilization(Utilization{1.0});
  for (int i = 0; i < 20000 && !cluster.node(0).halted(); ++i) {
    cluster.step(Seconds{0.05});
  }
  ASSERT_TRUE(cluster.node(0).halted());
  sysfs::SensorReading reading;
  EXPECT_EQ(cluster.ipmi().get_sensor_reading(0, 1, reading), sysfs::IpmiCompletion::kOk);
  EXPECT_EQ(cluster.ipmi().set_fan_override(0, DutyCycle{100.0}),
            sysfs::IpmiCompletion::kOk);
}

}  // namespace
}  // namespace thermctl::core
