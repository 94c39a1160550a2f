#include "core/tdvfs.hpp"

#include <gtest/gtest.h>

#include "controller_rig.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

TdvfsConfig paper_cfg(int pp = 50) {
  TdvfsConfig cfg;
  cfg.pp = PolicyParam{pp};
  cfg.threshold = Celsius{51.0};
  cfg.consistency_rounds = 3;
  return cfg;
}

TEST(Tdvfs, NoActionBelowThreshold) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 49.0, 100);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
  EXPECT_TRUE(daemon.events().empty());
  EXPECT_EQ(rig.cpu.transition_count(), 0u);
  // The paper triggers "above 51 °C": an average of exactly 51.0 is not
  // above it, however long it lasts.
  rig.run_flat(daemon, 51.0, 60);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
  EXPECT_TRUE(daemon.events().empty());
  EXPECT_EQ(rig.cpu.transition_count(), 0u);
}

TEST(Tdvfs, ScalesDownWhenConsistentlyAboveThreshold) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  // 3 consistent rounds = 12 samples at 53 °C.
  rig.run_flat(daemon, 53.0, 16);
  EXPECT_LT(rig.cpu.frequency().value(), 2.4);
  EXPECT_FALSE(daemon.events().empty());
}

TEST(Tdvfs, SingleHotRoundDoesNotTrigger) {
  // Fig. 8's red circle: short-term thermal behaviour gets no response.
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 49.0, 8);
  rig.run_flat(daemon, 53.0, 4);  // exactly one hot round
  rig.run_flat(daemon, 49.0, 8);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
  EXPECT_TRUE(daemon.events().empty());
}

TEST(Tdvfs, TwoHotRoundsStillNotEnoughAtThree) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 53.0, 8);  // two rounds
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
  rig.run_flat(daemon, 53.0, 4);  // third round triggers
  EXPECT_LT(rig.cpu.frequency().value(), 2.4);
}

TEST(Tdvfs, RestoresOriginalFrequencyWhenConsistentlyCool) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 54.0, 24);  // drive it down
  ASSERT_LT(rig.cpu.frequency().value(), 2.4);
  // Consistently below threshold − hysteresis (51 − 2 = 49) for the longer
  // restore window (10 rounds = 40 samples): 9 rounds is not yet enough.
  rig.run_flat(daemon, 47.0, 36);
  EXPECT_LT(rig.cpu.frequency().value(), 2.4);
  rig.run_flat(daemon, 47.0, 8);  // rounds 10-11: restore fires
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);
  // The restore is a single jump to the original mode (index 0).
  EXPECT_EQ(daemon.current_index(), 0u);
}

TEST(Tdvfs, HysteresisBandHoldsState) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 54.0, 24);
  const double down = rig.cpu.frequency().value();
  ASSERT_LT(down, 2.4);
  // 50 °C sits inside (49, 51): neither counter accumulates.
  rig.run_flat(daemon, 50.0, 60);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), down);
  // Restoring needs an average *below* threshold - hysteresis: exactly
  // 49.0 holds the scaled-down state too.
  rig.run_flat(daemon, 49.0, 60);
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), down);
}

TEST(Tdvfs, RepeatedTriggersDescendTheLadder) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 56.0, 80);  // 20 rounds of sustained heat
  // Multiple triggers should have walked well down the frequency ladder.
  EXPECT_LE(rig.cpu.frequency().value(), 2.0);
  EXPECT_GE(daemon.events().size(), 2u);
}

TEST(Tdvfs, FewTransitionsComparedToSampleCount) {
  // Table 1's headline: 2-3 transitions per run, not one per interval.
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 53.0, 200);   // hot plateau
  rig.run_flat(daemon, 45.0, 200);   // cool plateau
  EXPECT_LE(rig.cpu.transition_count(), 6u);
}

TEST(Tdvfs, SmallerPpReachesLowerFrequency) {
  // Fig. 10: with Pp=25 the CPU lands at a lower frequency than Pp=75.
  auto final_freq = [](int pp) {
    ControllerRig rig;
    TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg(pp)};
    rig.run_flat(daemon, 55.0, 40);  // 10 hot rounds
    return rig.cpu.frequency().value();
  };
  EXPECT_LE(final_freq(25), final_freq(75));
}

TEST(Tdvfs, EventsRecordTransitions) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  rig.run_flat(daemon, 54.0, 24);
  ASSERT_FALSE(daemon.events().empty());
  const TdvfsEvent& e = daemon.events().front();
  EXPECT_DOUBLE_EQ(e.from_ghz, 2.4);
  EXPECT_LT(e.to_ghz, 2.4);
  EXPECT_GT(e.time_s, 0.0);
}

TEST(Tdvfs, CurrentTargetTracksArray) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  EXPECT_DOUBLE_EQ(daemon.array().mode(daemon.current_index()), 2.4);
  rig.run_flat(daemon, 54.0, 24);
  EXPECT_DOUBLE_EQ(daemon.array().mode(daemon.current_index()), rig.cpu.frequency().value());
}

TEST(Tdvfs, SetPolicyRefills) {
  ControllerRig rig;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, paper_cfg(75)};
  daemon.set_policy(PolicyParam{25});
  EXPECT_EQ(daemon.array().policy().value, 25);
}

TEST(ThresholdTechnique, TriggersOnlyAboveTheThreshold) {
  // The paper's "above 51 °C", pinned on the rounds themselves: a round
  // whose level-one average is exactly the threshold never counts toward a
  // trigger, however many arrive; 0.25 °C above triggers on the
  // consistency_rounds-th round.
  ControllerRig rig;
  TdvfsTechnique dvfs{*rig.hwmon, *rig.cpufreq, paper_cfg()};
  SimTime now;
  const auto act = [&](double average) {
    now.advance_us(1000000);
    WindowRound round;
    round.level1_average = Celsius{average};
    dvfs.act(now, round);
  };
  for (int i = 0; i < 20; ++i) {
    act(51.0);
  }
  EXPECT_EQ(dvfs.current_index(), 0u);
  EXPECT_TRUE(dvfs.events().empty());
  for (int i = 1; i < paper_cfg().consistency_rounds; ++i) {
    act(51.25);
    EXPECT_EQ(dvfs.current_index(), 0u) << "after " << i << " hot rounds";
  }
  act(51.25);
  EXPECT_GT(dvfs.current_index(), 0u);
  EXPECT_EQ(dvfs.events().size(), 1u);
}

}  // namespace
}  // namespace thermctl::core
