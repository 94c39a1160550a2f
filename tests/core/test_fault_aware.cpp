// Fault-aware degradation paths of the dynamic fan controller and tDVFS:
// fail-safe cooling on confirmed sensor failure, frequency hold instead of
// oscillation, and restoration through the consistency-count machinery.
#include <gtest/gtest.h>

#include "controller_rig.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "core/unified_controller.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// Short confirmation thresholds so tests stay compact.
SensorHealthConfig quick_health() {
  SensorHealthConfig h;
  h.stuck_samples = 4;
  h.reject_samples = 3;
  h.recovery_samples = 2;
  return h;
}

/// Alternates between two adjacent sensor codes — the healthy-jitter
/// signature that never looks stuck.
double jitter(double base, int i) { return base + 0.25 * (i % 2); }

/// Whether `T` exposes a sensor-health monitor.
template <typename T>
constexpr bool kHasMonitor = requires(const T& t) { t.health(); };

TEST(FaultAware, MonitorsExistOnlyWhenFaultAware) {
  // Off by default: no monitor is allocated, and the accessors say so.
  ControllerRig rig;
  const DynamicFanController blind_fan{*rig.hwmon, FanControlConfig{}};
  const TdvfsDaemon blind_dvfs{*rig.hwmon, *rig.cpufreq, TdvfsConfig{}};
  const UnifiedController blind{*rig.hwmon, *rig.cpufreq, UnifiedConfig{}};
  EXPECT_EQ(blind_fan.health(), nullptr);
  EXPECT_EQ(blind_dvfs.health(), nullptr);
  EXPECT_EQ(blind.health(), nullptr);

  // One monitor per window: the window's owner holds it, and the
  // techniques a unified controller feeds hold none of their own.
  EXPECT_FALSE(kHasMonitor<FanTechnique>);
  EXPECT_FALSE(kHasMonitor<TdvfsTechnique>);
  EXPECT_TRUE(kHasMonitor<UnifiedController>);
  UnifiedConfig aware;
  aware.fault_aware = true;
  aware.health = quick_health();
  const UnifiedController gated{*rig.hwmon, *rig.cpufreq, aware};
  ASSERT_NE(gated.health(), nullptr);
  EXPECT_EQ(gated.health()->config().stuck_samples, 4);

  // The sub-configs' knobs are not read: the unified knob decides.
  UnifiedConfig sub_only;
  sub_only.fan.fault_aware = true;
  sub_only.tdvfs.fault_aware = true;
  const UnifiedController ungated{*rig.hwmon, *rig.cpufreq, sub_only};
  EXPECT_EQ(ungated.health(), nullptr);
}

TEST(FaultAwareFan, StuckSensorTriggersFailsafeCooling) {
  ControllerRig rig;
  FanControlConfig fc;
  fc.fault_aware = true;
  fc.health = quick_health();
  DynamicFanController fan{*rig.hwmon, fc};

  SimTime now;
  // Healthy warmup: jittering codes, no failure.
  for (int i = 0; i < 8; ++i) {
    now.advance_us(250000);
    rig.tick(fan, jitter(45.0, i), now);
  }
  ASSERT_FALSE(fan.in_failsafe());

  // Sensor freezes (identical readings) — confirmed after stuck_samples.
  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 4; ++i) {
    now.advance_us(250000);
    rig.tick(fan, 45.0, now);
  }
  EXPECT_TRUE(fan.in_failsafe());
  EXPECT_EQ(fan.failsafe_entries(), 1u);
  // Fail-safe means the array's most effective mode is on the chip.
  EXPECT_NEAR(rig.chip.output_duty().percent(), fan.array().most_effective(), 0.5);

  // Recovery: readings move and jitter again → controller resumes from the
  // top. (The first value must differ from the frozen one, or the identical
  // run would just keep growing.)
  rig.sensor.clear_fault();
  for (int i = 0; i < 2; ++i) {
    now.advance_us(250000);
    rig.tick(fan, jitter(46.0, i), now);
  }
  EXPECT_FALSE(fan.in_failsafe());
  EXPECT_EQ(fan.failsafe_exits(), 1u);
  EXPECT_EQ(fan.current_index(), fan.array().size() - 1);
}

TEST(FaultAwareFan, FailsafeWriteRetriesThroughBusFault) {
  ControllerRig rig;
  FanControlConfig fc;
  fc.fault_aware = true;
  fc.health = quick_health();
  DynamicFanController fan{*rig.hwmon, fc};

  SimTime now;
  for (int i = 0; i < 8; ++i) {
    now.advance_us(250000);
    rig.tick(fan, jitter(45.0, i), now);
  }
  // Sensor failure coincides with a persistent bus fault: the fail-safe
  // duty cannot land yet, but the controller keeps trying.
  rig.bus.inject_bus_fault();
  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 6; ++i) {
    now.advance_us(250000);
    rig.tick(fan, 45.0, now);
  }
  EXPECT_TRUE(fan.in_failsafe());
  EXPECT_LT(rig.chip.output_duty().percent(), fan.array().most_effective());
  // Bus recovers → the very next tick lands the fail-safe duty.
  rig.bus.clear_bus_fault();
  now.advance_us(250000);
  rig.tick(fan, 45.0, now);
  EXPECT_NEAR(rig.chip.output_duty().percent(), fan.array().most_effective(), 0.5);
}

TEST(FaultAwareFan, ZeroFaultRunsMatchBlindController) {
  // With no faults injected, the gated controller must act identically to
  // the blind one — same duty trace, same index, same retarget count.
  ControllerRig blind_rig;
  ControllerRig aware_rig;
  FanControlConfig blind_cfg;
  FanControlConfig aware_cfg;
  aware_cfg.fault_aware = true;
  DynamicFanController blind{*blind_rig.hwmon, blind_cfg};
  DynamicFanController aware{*aware_rig.hwmon, aware_cfg};

  SimTime now;
  for (int i = 0; i < 120; ++i) {
    now.advance_us(250000);
    // A ramp with jitter: enough variation to exercise retargets.
    const double temp = 40.0 + 0.15 * i + 0.25 * (i % 3);
    blind_rig.tick(blind, temp, now);
    aware_rig.tick(aware, temp, now);
    ASSERT_EQ(blind.current_index(), aware.current_index()) << "tick " << i;
    ASSERT_DOUBLE_EQ(blind_rig.chip.output_duty().percent(),
                     aware_rig.chip.output_duty().percent())
        << "tick " << i;
  }
  EXPECT_EQ(blind.retarget_count(), aware.retarget_count());
  EXPECT_EQ(aware.failsafe_entries(), 0u);
}

TEST(FaultAwareTdvfs, StuckHotSensorHoldsInsteadOfScaling) {
  ControllerRig rig;
  TdvfsConfig tc;
  tc.fault_aware = true;
  tc.health = quick_health();
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, tc};

  SimTime now;
  // Sensor freezes at a value above the 51 °C threshold. A blind daemon
  // would eventually scale down on this; the gated one must hold.
  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 60; ++i) {
    now.advance_us(250000);
    rig.tick(daemon, 60.0, now);
  }
  EXPECT_TRUE(daemon.holding());
  EXPECT_EQ(daemon.hold_entries(), 1u);
  EXPECT_GT(daemon.held_ticks(), 0u);
  EXPECT_EQ(daemon.current_index(), 0u);
  EXPECT_TRUE(daemon.events().empty());

  // Recovery at a cool temperature: resume control, still at full speed.
  rig.sensor.clear_fault();
  for (int i = 0; i < 2; ++i) {
    now.advance_us(250000);
    rig.tick(daemon, jitter(45.0, i), now);
  }
  EXPECT_FALSE(daemon.holding());
  EXPECT_EQ(daemon.current_index(), 0u);
}

TEST(FaultAwareTdvfs, BlindDaemonScalesOnTheSameStuckStream) {
  // Control experiment for the test above: fault-awareness off, same stuck
  // stream → the daemon does scale down, proving the hold is load-bearing.
  ControllerRig rig;
  TdvfsConfig tc;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, tc};

  SimTime now;
  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 60; ++i) {
    now.advance_us(250000);
    rig.tick(daemon, 60.0, now);
  }
  EXPECT_FALSE(daemon.events().empty());
  EXPECT_GT(daemon.current_index(), 0u);
}

}  // namespace
}  // namespace thermctl::core
