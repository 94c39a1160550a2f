// The decision-trace contract test the observability work hangs off: in a
// scripted thermal scenario, EVERY fan and tDVFS mode change the controllers
// apply must appear in the trace — at the same time, with the same from/to
// values, and with the correct Δt-source attribution (level-1 sudden change
// vs level-2 gradual trend) and consistency counts.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "controller_rig.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

std::vector<obs::ModeChange> changes_of(const obs::TraceRing& ring,
                                        obs::TraceSubsystem subsystem) {
  std::vector<obs::ModeChange> out;
  for (const obs::ModeChange& mc : obs::mode_change_sequence(ring.events())) {
    if (mc.subsystem == subsystem) {
      out.push_back(mc);
    }
  }
  return out;
}

TEST(TraceAttribution, EveryFanModeChangeIsTracedWithDeltaSource) {
  ControllerRig rig;
  FanControlConfig cfg;
  cfg.pp = PolicyParam{50};
  DynamicFanController fan{*rig.hwmon, cfg};
  obs::TraceRing ring{0, 1u << 12};
  fan.set_trace(&ring);

  // Scripted scenario, three regimes:
  //   1. sudden ramp (+0.8 °C/round) — level-1 Δt drives the fan up,
  //   2. slow drift (+0.08 °C/round) — only the level-2 predictor can see it,
  //   3. sudden cool-down — level-1 drives it back down.
  SimTime now;
  double temp = 40.0;
  for (int i = 0; i < 40; ++i) {
    now.advance_us(250000);
    temp += 0.2;
    rig.tick(fan, temp, now);
  }
  for (int i = 0; i < 200; ++i) {
    now.advance_us(250000);
    temp += 0.02;
    rig.tick(fan, temp, now);
  }
  for (int i = 0; i < 40; ++i) {
    now.advance_us(250000);
    temp -= 0.3;
    rig.tick(fan, temp, now);
  }

  const auto events = fan.events();
  const std::vector<FanEvent> applied(events.begin(), events.end());
  const std::vector<obs::ModeChange> traced = changes_of(ring, obs::TraceSubsystem::kFan);
  ASSERT_GE(applied.size(), 3u);  // the scenario must actually move the fan
  ASSERT_EQ(traced.size(), applied.size());
  bool saw_level1 = false;
  bool saw_level2 = false;
  for (std::size_t k = 0; k < applied.size(); ++k) {
    EXPECT_DOUBLE_EQ(traced[k].t_s, applied[k].time_s) << "change " << k;
    EXPECT_DOUBLE_EQ(traced[k].from, applied[k].from_duty) << "change " << k;
    EXPECT_DOUBLE_EQ(traced[k].to, applied[k].to_duty) << "change " << k;
    EXPECT_EQ(traced[k].used_level2, applied[k].used_level2)
        << "Δt-source attribution diverged at change " << k;
    (applied[k].used_level2 ? saw_level2 : saw_level1) = true;
  }
  // The scenario is built to exercise BOTH attribution paths.
  EXPECT_TRUE(saw_level1);
  EXPECT_TRUE(saw_level2);
}

TEST(TraceAttribution, DecisionEventsPrecedeAndExplainEachRetarget) {
  ControllerRig rig;
  FanControlConfig cfg;
  cfg.pp = PolicyParam{50};
  DynamicFanController fan{*rig.hwmon, cfg};
  obs::TraceRing ring{0, 1u << 12};
  fan.set_trace(&ring);

  SimTime now;
  double temp = 40.0;
  for (int i = 0; i < 80; ++i) {
    now.advance_us(250000);
    temp += 0.15;
    rig.tick(fan, temp, now);
  }
  // Hold flat so unchanged rounds accumulate too (rounds > retargets below).
  for (int i = 0; i < 40; ++i) {
    now.advance_us(250000);
    rig.tick(fan, temp, now);
  }

  // Walk the raw stream: every applied retarget must be immediately preceded
  // by a window round and a mode decision flagged kChanged whose target index
  // and Δt-source agree with the retarget.
  const std::vector<obs::TraceEvent> events = ring.events();
  std::size_t retargets = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != obs::TraceEventType::kFanRetarget) {
      continue;
    }
    ++retargets;
    ASSERT_GE(i, 2u);
    const obs::TraceEvent& decision = events[i - 1];
    const obs::TraceEvent& round = events[i - 2];
    ASSERT_EQ(decision.type, obs::TraceEventType::kModeDecision);
    ASSERT_EQ(round.type, obs::TraceEventType::kWindowRound);
    EXPECT_DOUBLE_EQ(decision.t_s, events[i].t_s);
    EXPECT_TRUE(decision.flags & obs::kTraceFlagChanged);
    EXPECT_EQ(decision.i1, events[i].i0);  // same target array index
    EXPECT_EQ(decision.flags & obs::kTraceFlagUsedLevel2,
              events[i].flags & obs::kTraceFlagUsedLevel2);
    // The decision's Δt must be the one the round reported for its source:
    // level-1 Δt normally, level-2 Δt when the gradual predictor fired.
    const double expected_delta =
        (decision.flags & obs::kTraceFlagUsedLevel2) ? round.c : round.b;
    EXPECT_DOUBLE_EQ(decision.b, expected_delta);
  }
  EXPECT_GT(retargets, 0u);
  // Rounds fire every 4 samples (1 s); they outnumber retargets.
  const auto stats = obs::decision_stats(events);
  EXPECT_GT(stats.at(0).window_rounds, stats.at(0).fan_retargets);
  EXPECT_EQ(stats.at(0).fan_retargets, retargets);
}

TEST(TraceAttribution, EveryTdvfsTransitionIsTracedWithConsistencyCount) {
  ControllerRig rig;
  TdvfsConfig cfg;
  cfg.pp = PolicyParam{50};
  cfg.threshold = Celsius{51.0};
  cfg.consistency_rounds = 3;
  TdvfsDaemon daemon{*rig.hwmon, *rig.cpufreq, cfg};
  obs::TraceRing ring{0, 1u << 12};
  daemon.set_trace(&ring);

  // Hot plateau long enough to trigger, then a cool plateau long enough for
  // the (longer) restore window.
  rig.run_flat(daemon, 54.0, 24);
  ASSERT_LT(rig.cpu.frequency().value(), 2.4);
  rig.run_flat(daemon, 46.0, 48, SimTime::from_ms(24 * 250));

  const auto events = daemon.events();
  const std::vector<TdvfsEvent> applied(events.begin(), events.end());
  const std::vector<obs::ModeChange> traced = changes_of(ring, obs::TraceSubsystem::kTdvfs);
  ASSERT_GE(applied.size(), 2u);  // at least one trigger and the restore
  ASSERT_EQ(traced.size(), applied.size());
  for (std::size_t k = 0; k < applied.size(); ++k) {
    EXPECT_DOUBLE_EQ(traced[k].t_s, applied[k].time_s) << "transition " << k;
    EXPECT_DOUBLE_EQ(traced[k].from, applied[k].from_ghz) << "transition " << k;
    EXPECT_DOUBLE_EQ(traced[k].to, applied[k].to_ghz) << "transition " << k;
    // Triggers are armed by the consistency machinery; the count that armed
    // each one must ride along and be at least the configured floor.
    if (!traced[k].is_restore) {
      EXPECT_GE(traced[k].consistency_rounds, cfg.consistency_rounds);
    }
  }
  // The scripted scenario ends with the restore to the original frequency.
  EXPECT_TRUE(traced.back().is_restore);
  EXPECT_DOUBLE_EQ(traced.back().to, 2.4);
  EXPECT_GE(traced.back().consistency_rounds, FrequencyPlane::kRestoreRounds);
}

TEST(TraceAttribution, QuietScenarioEmitsRoundsButNoModeChanges) {
  // Negative control: a flat, cool scenario produces window rounds and
  // unchanged decisions, but zero mode changes — the trace must agree.
  ControllerRig rig;
  FanControlConfig cfg;
  cfg.pp = PolicyParam{50};
  DynamicFanController fan{*rig.hwmon, cfg};
  obs::TraceRing ring{0, 1u << 12};
  fan.set_trace(&ring);
  rig.run_flat(fan, 42.0, 8);  // settle
  const std::size_t changes_after_settle = changes_of(ring, obs::TraceSubsystem::kFan).size();
  rig.run_flat(fan, 42.0, 80, SimTime::from_ms(8 * 250));

  EXPECT_EQ(changes_of(ring, obs::TraceSubsystem::kFan).size(), changes_after_settle);
  const auto stats = obs::decision_stats(ring.events());
  EXPECT_GT(stats.at(0).window_rounds, 20u);
  EXPECT_EQ(stats.at(0).fan_write_failures, 0u);
}

}  // namespace
}  // namespace thermctl::core
