#include "hw/cpu_device.hpp"

#include <gtest/gtest.h>

#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

using namespace thermctl::literals;

TEST(CpuDevice, DefaultLadderMatchesPaperPlatform) {
  SoloCpu cpu;
  ASSERT_EQ(cpu.pstate_count(), 5u);
  EXPECT_DOUBLE_EQ(cpu.max_frequency().value(), 2.4);
  EXPECT_DOUBLE_EQ(cpu.min_frequency().value(), 1.0);
  EXPECT_DOUBLE_EQ(cpu.frequency().value(), 2.4);  // boots at fastest
}

TEST(CpuDevice, SetPstateSwitches) {
  SoloCpu cpu;
  cpu.set_pstate(2);
  EXPECT_EQ(cpu.pstate_index(), 2u);
  EXPECT_DOUBLE_EQ(cpu.frequency().value(), 2.0);
}

TEST(CpuDevice, SetFrequencySnapsToNearest) {
  SoloCpu cpu;
  cpu.set_frequency(2.1_GHz);
  EXPECT_DOUBLE_EQ(cpu.frequency().value(), 2.2);  // 2.1 is nearer 2.2 than 2.0
  cpu.set_frequency(GigaHertz{1.3});
  EXPECT_DOUBLE_EQ(cpu.frequency().value(), 1.0);
}

TEST(CpuDevice, TransitionCountingOnlyOnChange) {
  SoloCpu cpu;
  EXPECT_EQ(cpu.transition_count(), 0u);
  cpu.set_pstate(0);  // no-op
  EXPECT_EQ(cpu.transition_count(), 0u);
  cpu.set_pstate(1);
  cpu.set_pstate(1);  // no-op
  cpu.set_pstate(0);
  EXPECT_EQ(cpu.transition_count(), 2u);
}

TEST(CpuDevice, PowerIncreasesWithUtilization) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{0.0});
  const double idle = cpu.power().value();
  cpu.set_utilization(Utilization{1.0});
  const double busy = cpu.power().value();
  EXPECT_GT(busy, idle * 2.0);
}

TEST(CpuDevice, PowerDropsSuperlinearlyWithFrequency) {
  // The paper's core claim about DVFS: lower frequency + lower voltage cuts
  // power faster than linearly in f.
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.set_pstate(0);  // 2.4 GHz @ 1.40 V
  const double p_fast = cpu.power().value();
  cpu.set_pstate(4);  // 1.0 GHz @ 1.10 V
  const double p_slow = cpu.power().value();
  const double freq_ratio = 1.0 / 2.4;
  EXPECT_LT(p_slow / p_fast, freq_ratio * 0.95 + 0.25);  // clearly sublinear scaling
  EXPECT_LT(p_slow, p_fast * 0.45);
}

TEST(CpuDevice, LeakageGrowsWithDieTemperature) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{0.5});
  cpu.set_die_temperature(Celsius{40.0});
  const double cool = cpu.power().value();
  cpu.set_die_temperature(Celsius{70.0});
  const double hot = cpu.power().value();
  EXPECT_GT(hot, cool);
  EXPECT_LT(hot - cool, 6.0);  // leakage delta is watts, not tens of watts
}

TEST(CpuDevice, FullLoadPowerIsAthlonClass) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.set_die_temperature(Celsius{55.0});
  const double p = cpu.power().value();
  EXPECT_GT(p, 45.0);
  EXPECT_LT(p, 75.0);  // Athlon64 4000+ is an 89 W-TDP part; cpu-burn draws less
}

TEST(CpuDevice, ThrottleReducesEffectiveFrequencyNotPstate) {
  SoloCpu cpu;
  cpu.set_pstate(0);
  cpu.set_thermal_throttle(true);
  EXPECT_DOUBLE_EQ(cpu.frequency().value(), 2.4);  // OS still sees 2.4
  EXPECT_DOUBLE_EQ(cpu.effective_frequency().value(), 1.0);
  EXPECT_EQ(cpu.transition_count(), 0u);  // PROCHOT is not a transition
  cpu.set_thermal_throttle(false);
  EXPECT_DOUBLE_EQ(cpu.effective_frequency().value(), 2.4);
}

TEST(CpuDevice, ThrottleCutsDynamicPower) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  const double normal = cpu.power().value();
  cpu.set_thermal_throttle(true);
  EXPECT_LT(cpu.power().value(), normal * 0.6);
}

TEST(CpuDevice, WorkCapacityScalesWithFrequencyAndUtilization) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  EXPECT_NEAR(cpu.work_capacity(Seconds{2.0}), 4.8, 1e-12);
  cpu.set_utilization(Utilization{0.5});
  EXPECT_NEAR(cpu.work_capacity(Seconds{2.0}), 2.4, 1e-12);
  cpu.set_pstate(4);
  EXPECT_NEAR(cpu.work_capacity(Seconds{2.0}), 1.0, 1e-12);
}

TEST(CpuDeviceDeath, RejectsOutOfRangePstate) {
  SoloCpu cpu;
  EXPECT_DEATH(cpu.set_pstate(5), "range");
}

TEST(CpuDeviceDeath, RejectsUnorderedPstates) {
  CpuParams params;
  params.pstates = {{2.0_GHz, Volts{1.3}}, {2.4_GHz, Volts{1.4}}};
  EXPECT_DEATH(SoloCpu{params}, "descending");
}

TEST(CpuDeviceDeath, RejectsEmptyPstates) {
  CpuParams params;
  params.pstates.clear();
  EXPECT_DEATH(SoloCpu{params}, "P-state");
}

// Power monotonicity across the whole ladder at full load.
class CpuLadderSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CpuLadderSweep, SlowerPstateNeverDrawsMorePower) {
  const std::size_t idx = GetParam();
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.set_pstate(idx);
  const double p_here = cpu.power().value();
  if (idx + 1 < cpu.pstate_count()) {
    cpu.set_pstate(idx + 1);
    EXPECT_LT(cpu.power().value(), p_here);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPstates, CpuLadderSweep, ::testing::Values(0u, 1u, 2u, 3u, 4u));

}  // namespace
}  // namespace thermctl::hw
