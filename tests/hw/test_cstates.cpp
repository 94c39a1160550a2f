#include "hw/cstates.hpp"

#include <gtest/gtest.h>

#include "hw/cpu_device.hpp"
#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

TEST(IdleInjector, InactiveByDefault) {
  SoloInjector inj;
  EXPECT_FALSE(inj.active());
  EXPECT_DOUBLE_EQ(inj.throughput_factor(), 1.0);
  EXPECT_DOUBLE_EQ(inj.dynamic_power_factor(), 1.0);
  EXPECT_DOUBLE_EQ(inj.leakage_power_factor(), 1.0);
}

TEST(IdleInjector, DefaultLadderOrderedShallowToDeep) {
  const auto states = default_cstates();
  ASSERT_EQ(states.size(), 3u);
  for (std::size_t i = 1; i < states.size(); ++i) {
    EXPECT_LT(states[i].dynamic_retention, states[i - 1].dynamic_retention);
    EXPECT_LE(states[i].leakage_retention, states[i - 1].leakage_retention);
    EXPECT_GT(states[i].wakeup_latency.value(), states[i - 1].wakeup_latency.value());
  }
}

TEST(IdleInjector, ThroughputScalesWithFraction) {
  SoloInjector inj;
  inj.set_injection(0.30, 0);
  EXPECT_NEAR(inj.throughput_factor(), 0.70, 1e-3);
}

TEST(IdleInjector, DeepStateWakeLatencyCostsThroughput) {
  SoloInjector inj;
  inj.set_injection(0.30, 0);  // C1: 2 us wake
  const double shallow = inj.throughput_factor();
  inj.set_injection(0.30, 2);  // C2: 100 us wake
  EXPECT_LT(inj.throughput_factor(), shallow);
}

TEST(IdleInjector, DeeperStateSavesMorePower) {
  SoloInjector inj;
  inj.set_injection(0.40, 0);
  const double dyn_shallow = inj.dynamic_power_factor();
  const double leak_shallow = inj.leakage_power_factor();
  inj.set_injection(0.40, 2);
  EXPECT_LT(inj.dynamic_power_factor(), dyn_shallow);
  EXPECT_LT(inj.leakage_power_factor(), leak_shallow);
}

TEST(IdleInjector, FractionClampedToMax) {
  SoloInjector inj;
  inj.set_injection(0.9, 0);
  EXPECT_DOUBLE_EQ(inj.fraction(), 0.5);  // powerclamp-style 50% cap
}

TEST(IdleInjector, StopRestoresNominal) {
  SoloInjector inj;
  inj.set_injection(0.4, 1);
  inj.stop();
  EXPECT_FALSE(inj.active());
  EXPECT_DOUBLE_EQ(inj.throughput_factor(), 1.0);
}

TEST(IdleInjector, CpuPowerDropsUnderInjection) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  const double full = cpu.power().value();
  cpu.idle_injector().set_injection(0.5, 2);
  const double clamped = cpu.power().value();
  EXPECT_LT(clamped, full * 0.62);  // ~half the dynamic power gone
  EXPECT_GT(clamped, full * 0.35);  // leakage retention keeps it bounded
}

TEST(IdleInjector, CpuWorkCapacityDropsUnderInjection) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.idle_injector().set_injection(0.25, 0);
  EXPECT_NEAR(cpu.work_capacity(Seconds{1.0}), 2.4 * 0.75, 0.01);
  EXPECT_NEAR(cpu.delivered_frequency().value(), 2.4 * 0.75, 0.01);
}

TEST(IdleInjector, ComposesWithProchot) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.idle_injector().set_injection(0.5, 0);
  cpu.set_thermal_throttle(true);
  // Both mechanisms multiply: 1.0 GHz PROCHOT floor * 50% injection.
  EXPECT_NEAR(cpu.delivered_frequency().value(), 0.5, 0.01);
}

TEST(IdleInjectorDeath, RejectsBadState) {
  SoloInjector inj;
  EXPECT_DEATH(inj.set_injection(0.3, 9), "C-state");
}

TEST(IdleInjectorDeath, RejectsEmptyLadder) {
  IdleInjectorParams params;
  params.cstates.clear();
  EXPECT_DEATH(SoloInjector{params}, "C-state");
}

}  // namespace
}  // namespace thermctl::hw
