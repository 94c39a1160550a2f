#include "core/cpuspeed.hpp"

#include <gtest/gtest.h>

#include "controller_rig.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// The governor over a /proc/stat that publishes test-owned counters.
struct CpuspeedRig : ControllerRig {
  std::uint64_t busy = 0;
  std::uint64_t total = 0;
  sysfs::ProcStat proc_stat{fs, &busy, &total};
  CpuspeedGovernor governor{fs, proc_stat, *cpufreq, CpuspeedConfig{}};
  SimTime now;

  /// Simulates one governor interval at utilization `u`.
  void interval(double u) {
    total += 100;  // 1 s at USER_HZ
    busy += static_cast<std::uint64_t>(u * 100.0);
    now.advance_us(1000000);
    governor.on_interval(now);
  }
};

TEST(Cpuspeed, FirstIntervalOnlyPrimes) {
  CpuspeedRig rig;
  rig.interval(0.0);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
  EXPECT_EQ(rig.cpu.transition_count(), 0u);
}

TEST(Cpuspeed, StepsDownWhenIdle) {
  CpuspeedRig rig;
  rig.interval(0.1);  // prime
  rig.interval(0.1);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.2);  // one rung down
  rig.interval(0.1);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.0);
}

TEST(Cpuspeed, WalksToMinimumUnderSustainedIdle) {
  CpuspeedRig rig;
  for (int i = 0; i < 8; ++i) {
    rig.interval(0.05);
  }
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 1.0);
  // Stays there without further transitions.
  const auto trans = rig.cpu.transition_count();
  rig.interval(0.05);
  EXPECT_EQ(rig.cpu.transition_count(), trans);
}

TEST(Cpuspeed, JumpsToMaxWhenBusy) {
  CpuspeedRig rig;
  for (int i = 0; i < 8; ++i) {
    rig.interval(0.05);  // drive to minimum
  }
  rig.interval(0.95);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);  // straight to max
}

TEST(Cpuspeed, MidUtilizationHolds) {
  CpuspeedRig rig;
  rig.interval(0.85);  // prime
  const auto trans = rig.cpu.transition_count();
  for (int i = 0; i < 5; ++i) {
    rig.interval(0.85);  // between down (0.75) and up (0.90)
  }
  EXPECT_EQ(rig.cpu.transition_count(), trans);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
}

TEST(Cpuspeed, PhaseAlternationThrashesFrequencies) {
  // The Table 1 phenomenon: compute/comm alternation = up/down churn.
  CpuspeedRig rig;
  rig.interval(1.0);
  for (int i = 0; i < 50; ++i) {
    rig.interval(1.0);   // compute: jump/stay max
    rig.interval(0.5);   // comm: step down
  }
  // Every comm interval steps down, every compute interval jumps up:
  // ~2 transitions per cycle.
  EXPECT_GE(rig.cpu.transition_count(), 80u);
}

TEST(Cpuspeed, ThermallyBlind) {
  // No matter what the temperature does, cpuspeed only reads jiffies —
  // the sensor is never consulted. (Structural: the governor holds no
  // reference to hwmon; this test documents the behavioural consequence.)
  CpuspeedRig rig;
  rig.truth = 90.0;  // scorching
  rig.sensor.sample();
  rig.interval(1.0);
  rig.interval(1.0);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);  // still flat out
}

TEST(Cpuspeed, LastUtilizationExposed) {
  CpuspeedRig rig;
  rig.interval(0.6);
  rig.interval(0.6);
  EXPECT_NEAR(rig.governor.last_utilization(), 0.6, 0.01);
}

TEST(Cpuspeed, ZeroTotalDeltaIsIgnored) {
  CpuspeedRig rig;
  rig.interval(0.5);
  rig.governor.on_interval(rig.now);  // no jiffies advanced
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
}

TEST(Cpuspeed, ProcStatConstructorReadsTheFile) {
  // Daemon-faithful wiring: the governor parses /proc/stat text every
  // interval rather than calling into the node object.
  ControllerRig rig;
  std::uint64_t busy = 0;
  std::uint64_t total = 0;
  sysfs::ProcStat proc_stat{rig.fs, &busy, &total};
  CpuspeedGovernor governor{rig.fs, proc_stat, *rig.cpufreq, CpuspeedConfig{}};
  SimTime now;
  auto interval = [&](double u) {
    total += 100;
    busy += static_cast<std::uint64_t>(u * 100.0);
    now.advance_us(1000000);
    governor.on_interval(now);
  };
  interval(0.1);  // prime
  interval(0.1);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.2);  // stepped down via the file
  interval(1.0);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);  // jumped up via the file
}

TEST(CpuspeedDeath, RejectsInvertedThresholds) {
  CpuspeedRig rig;
  CpuspeedConfig cfg;
  cfg.up_threshold = 0.5;
  cfg.down_threshold = 0.7;
  EXPECT_DEATH(CpuspeedGovernor(rig.fs, rig.proc_stat, *rig.cpufreq, cfg), "threshold");
}

}  // namespace
}  // namespace thermctl::core
