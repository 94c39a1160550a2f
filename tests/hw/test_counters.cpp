#include <gtest/gtest.h>

#include "hw/cpu_device.hpp"
#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

TEST(Counters, StartAtZero) {
  SoloCpu cpu;
  EXPECT_EQ(cpu.aperf(), 0u);
  EXPECT_EQ(cpu.mperf(), 0u);
  EXPECT_EQ(cpu.energy_uj(), 0u);
}

TEST(Counters, MperfTracksWallTimeAtMaxFrequency) {
  SoloCpu cpu;
  for (int i = 0; i < 20; ++i) {
    cpu.advance_counters(Seconds{0.05});
  }
  // 1 s at 2.4 GHz nominal = 2400 Mcycles.
  EXPECT_NEAR(static_cast<double>(cpu.mperf()), 2400.0, 1.0);
}

TEST(Counters, AperfTracksDeliveredWork) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{0.5});
  cpu.advance_counters(Seconds{1.0});
  // 1 s at 2.4 GHz * 50% utilization = 1200 Mcycles.
  EXPECT_NEAR(static_cast<double>(cpu.aperf()), 1200.0, 1.0);
}

TEST(Counters, AperfMperfRatioGivesDeliveredSpeed) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.set_pstate(2);  // 2.0 GHz
  cpu.advance_counters(Seconds{2.0});
  const double ratio =
      static_cast<double>(cpu.aperf()) / static_cast<double>(cpu.mperf());
  EXPECT_NEAR(ratio, 2.0 / 2.4, 0.01);
}

TEST(Counters, ThrottlingShowsInAperf) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  cpu.set_thermal_throttle(true);
  cpu.advance_counters(Seconds{1.0});
  EXPECT_NEAR(static_cast<double>(cpu.aperf()), 1000.0, 1.0);  // 1.0 GHz floor
}

TEST(Counters, EnergyIntegratesPower) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  const double p = cpu.power().value();
  cpu.advance_counters(Seconds{1.0});
  EXPECT_NEAR(static_cast<double>(cpu.energy_uj()) * 1e-6, p, 0.01);
}

TEST(Counters, SmallStepsAccumulateWithoutDrift) {
  SoloCpu cpu;
  cpu.set_utilization(Utilization{1.0});
  SoloCpu reference;
  reference.set_utilization(Utilization{1.0});
  for (int i = 0; i < 1000; ++i) {
    cpu.advance_counters(Seconds{0.001});  // 1 ms steps
  }
  reference.advance_counters(Seconds{1.0});  // one big step
  EXPECT_NEAR(static_cast<double>(cpu.energy_uj()),
              static_cast<double>(reference.energy_uj()), 10.0);
  EXPECT_NEAR(static_cast<double>(cpu.aperf()),
              static_cast<double>(reference.aperf()), 2.0);
}

}  // namespace
}  // namespace thermctl::hw
