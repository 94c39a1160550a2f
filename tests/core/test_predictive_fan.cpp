#include "core/predictive_fan.hpp"

#include <gtest/gtest.h>

#include "controller_rig.hpp"
#include "sysfs/powercap.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// Rig with RAPL and a hand-driven power history: counters are advanced by
/// explicitly stepping the CPU device.
struct PredictiveRig : ControllerRig {
  sysfs::RaplDomain rapl{fs, "/sys/class/powercap", 0, cpu};

  /// Simulates 250 ms at a given utilization (power follows instantly) and
  /// a given temperature, and ticks the controller.
  template <typename Controller>
  void quarter_second(Controller& ctl, double util, double temp, SimTime& now) {
    cpu.set_utilization(Utilization{util});
    cpu.advance_counters(Seconds{0.25});
    now.advance_us(250000);
    tick(ctl, temp, now);
  }
};

PredictiveFanConfig paper_cfg(int pp = 50) {
  PredictiveFanConfig cfg;
  cfg.base.pp = PolicyParam{pp};
  return cfg;
}

TEST(PredictiveFan, QuietWhenPowerAndTemperatureFlat) {
  PredictiveRig rig;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, paper_cfg()};
  SimTime now;
  for (int i = 0; i < 40; ++i) {
    rig.quarter_second(ctl, 0.3, 42.0, now);
  }
  EXPECT_EQ(ctl.retarget_count(), 0u);
  EXPECT_EQ(ctl.current_index(), 0u);
}

TEST(PredictiveFan, PowerStepTriggersBeforeTemperatureMoves) {
  // The decisive scenario: utilization jumps 0.1 -> 1.0 but the (scripted)
  // temperature has not moved yet. History alone would do nothing; the
  // counter feed-forward must retarget within the first completed round.
  PredictiveRig rig;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, paper_cfg()};
  SimTime now;
  for (int i = 0; i < 8; ++i) {  // two quiet rounds to prime power history
    rig.quarter_second(ctl, 0.1, 40.0, now);
  }
  const auto before = ctl.retarget_count();
  for (int i = 0; i < 4; ++i) {  // one round of full load, temp still flat
    rig.quarter_second(ctl, 1.0, 40.0, now);
  }
  EXPECT_GT(ctl.retarget_count(), before);
  EXPECT_GT(ctl.feedforward_count(), 0u);
  EXPECT_GT(ctl.current_index(), 0u);
}

TEST(PredictiveFan, PowerStepInTheRoundTheCounterWrapsActsAtOnce) {
  // PowerStepTriggersBeforeTemperatureMoves with the RAPL counter wrapping
  // halfway through the full-load round. Read wrap-correctly, that round's
  // power is the step, and the feed-forward retargets in it. A raw
  // `energy - last` would read an underflowed delta, which the sample clamp
  // discards, and the feed-forward would act only a round later.
  const auto energy_after = [](int quiet_quarters, int full_quarters) {
    PredictiveRig dry;
    for (int i = 0; i < quiet_quarters + full_quarters; ++i) {
      dry.cpu.set_utilization(Utilization{i < quiet_quarters ? 0.1 : 1.0});
      dry.cpu.advance_counters(Seconds{0.25});
    }
    return dry.cpu.energy_uj();
  };
  PredictiveRig rig;
  // The counter reaches max_energy_range_uj one quarter into the full-load
  // round and wraps on the next.
  rig.cpu.preset_counters(0, 0, sysfs::RaplDomain::kMaxEnergyRangeUj - energy_after(8, 1));
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, paper_cfg()};
  SimTime now;
  for (int i = 0; i < 8; ++i) {  // two quiet rounds to prime power history
    rig.quarter_second(ctl, 0.1, 40.0, now);
  }
  const std::uint64_t before_step = rig.rapl.energy_uj();
  const auto before = ctl.retarget_count();
  for (int i = 0; i < 4; ++i) {  // one round of full load, temp still flat
    rig.quarter_second(ctl, 1.0, 40.0, now);
  }
  ASSERT_LT(rig.rapl.energy_uj(), before_step) << "the counter did not wrap in this round";
  EXPECT_GT(ctl.retarget_count(), before);
  EXPECT_GT(ctl.feedforward_count(), 0u);
  EXPECT_GT(ctl.current_index(), 0u);
}

TEST(PredictiveFan, BusFaultDuringThePowerStepKeepsTheIndex) {
  // PowerStepTriggersBeforeTemperatureMoves with the i2c bus down across
  // the full-load round: the feed-forward retarget's write fails, so the
  // controller must keep believing the duty the chip still holds.
  PredictiveRig rig;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, paper_cfg()};
  SimTime now;
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 0.1, 40.0, now);
  }
  const auto before = ctl.retarget_count();
  rig.bus.inject_bus_fault();
  for (int i = 0; i < 4; ++i) {
    rig.quarter_second(ctl, 1.0, 40.0, now);
  }
  rig.bus.clear_bus_fault();
  EXPECT_EQ(ctl.current_index(), 0u);
  EXPECT_EQ(ctl.retarget_count(), before);
  EXPECT_TRUE(ctl.events().empty());
}

TEST(PredictiveFan, HistoryOnlyControllerMissesTheSameStep) {
  // Contrast: the baseline DynamicFanController sees only the flat
  // temperature and does nothing — the lag the future-work item removes.
  PredictiveRig rig;
  FanControlConfig base;
  base.pp = PolicyParam{50};
  DynamicFanController ctl{*rig.hwmon, base};
  SimTime now;
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 0.1, 40.0, now);
  }
  for (int i = 0; i < 4; ++i) {
    rig.quarter_second(ctl, 1.0, 40.0, now);
  }
  EXPECT_EQ(ctl.retarget_count(), 0u);
}

TEST(PredictiveFan, PowerDropUnwindsTheFan) {
  PredictiveRig rig;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, paper_cfg()};
  SimTime now;
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 1.0, 50.0, now);
  }
  // Push the index up with a couple of hot rounds.
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 1.0, 50.0 + 0.5 * i, now);
  }
  const std::size_t peak = ctl.current_index();
  ASSERT_GT(peak, 0u);
  // Load vanishes; temperature still high but flat — feed-forward unwinds.
  for (int i = 0; i < 4; ++i) {
    rig.quarter_second(ctl, 0.05, 53.0, now);
  }
  EXPECT_LT(ctl.current_index(), peak);
}

TEST(PredictiveFan, DeadbandSuppressesMeterNoise) {
  PredictiveRig rig;
  PredictiveFanConfig cfg = paper_cfg();
  cfg.power_deadband_w = 200.0;  // absurdly wide: feed-forward always off
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, cfg};
  SimTime now;
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 0.1, 40.0, now);
  }
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 1.0, 40.0, now);  // temp flat, power step gated off
  }
  EXPECT_EQ(ctl.feedforward_count(), 0u);
  EXPECT_EQ(ctl.retarget_count(), 0u);
}

TEST(PredictiveFan, StillRespondsToPlainTemperatureTrends) {
  // With power flat, it must behave like the baseline controller.
  PredictiveRig rig;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, paper_cfg()};
  SimTime now;
  double temp = 40.0;
  for (int i = 0; i < 60; ++i) {
    temp += 0.2;
    rig.quarter_second(ctl, 0.5, temp, now);
  }
  EXPECT_GT(ctl.current_index(), 5u);
  EXPECT_GT(ctl.retarget_count(), 0u);
}

TEST(PredictiveFan, FaultAwareFailsSafeOnAFrozenSensor) {
  // base.fault_aware gates the predictive fan like every standalone
  // controller: once the sensor is confirmed frozen, the chip is driven to
  // the array's most effective duty instead of steering on a dead reading.
  PredictiveRig rig;
  PredictiveFanConfig cfg = paper_cfg();
  cfg.base.fault_aware = true;
  cfg.base.health.stuck_samples = 4;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, cfg};
  SimTime now;
  for (int i = 0; i < 8; ++i) {  // healthy: the reading moves every sample
    rig.quarter_second(ctl, 0.3, 42.0 + 0.25 * (i % 2), now);
  }
  ASSERT_LT(rig.chip.output_duty().percent(), 10.0);
  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 8; ++i) {
    rig.quarter_second(ctl, 0.3, 42.0, now);
  }
  EXPECT_NEAR(rig.chip.output_duty().percent(), cfg.base.max_duty.percent(), 0.5);
}

TEST(PredictiveFan, RecoveryRoundIgnoresPowerFromBeforeTheOutage) {
  // The load drops while the sensor is frozen. The first round after the
  // recovery must not compare its power with the full-load power seen
  // before the outage: that stale drop would unwind the fail-safe duty by
  // feed-forward alone while the temperature is flat.
  PredictiveRig rig;
  PredictiveFanConfig cfg = paper_cfg();
  cfg.base.fault_aware = true;
  cfg.base.health.stuck_samples = 4;
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, cfg};
  SimTime now;
  int tick = 0;
  const auto dithered = [&tick] { return 42.0 + 0.25 * (tick++ % 2); };
  for (int i = 0; i < 8; ++i) {  // full load, power history primed
    rig.quarter_second(ctl, 1.0, dithered(), now);
  }
  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 40; ++i) {  // the load drops during the outage
    rig.quarter_second(ctl, 0.05, 42.0, now);
  }
  ASSERT_TRUE(ctl.in_failsafe());
  rig.sensor.clear_fault();
  for (int i = 0; i < 40 && ctl.in_failsafe(); ++i) {
    rig.quarter_second(ctl, 0.05, dithered(), now);
  }
  ASSERT_FALSE(ctl.in_failsafe());
  const std::uint64_t retargets = ctl.retarget_count();
  for (int i = 0; i < 4; ++i) {  // the first round after the recovery
    rig.quarter_second(ctl, 0.05, dithered(), now);
  }
  EXPECT_EQ(ctl.feedforward_count(), 0u);
  EXPECT_EQ(ctl.retarget_count(), retargets);
  EXPECT_EQ(ctl.current_index(), ctl.array().size() - 1);
}

}  // namespace
}  // namespace thermctl::core
