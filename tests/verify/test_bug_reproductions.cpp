// Regression reproductions for the bugs the verification harness flushed
// out. Each test encodes the exact scenario that failed before the fix, so
// a reintroduction trips immediately (and names the original symptom).
#include <gtest/gtest.h>

#include "../core/controller_rig.hpp"
#include "core/pid_fan.hpp"
#include "core/power_cap.hpp"
#include "core/predictive_fan.hpp"
#include "core/step_wise.hpp"
#include "sysfs/powercap.hpp"
#include "sysfs/thermal_zone.hpp"

namespace thermctl::verify {
namespace {

using core::testing::ControllerRig;

// ---- Bug 1: PidFanController::reset() left hardware state stale ----
//
// reset() cleared the PID terms but kept `initialized_`, the cached duty
// and the actuation counter. After a reset at steady state the next tick
// computed the same duty as the stale cache, the write-suppression shortcut
// swallowed the PWM write, and the chip was never re-asserted into manual
// mode — on real hardware, a controller restart after a chip power cycle
// would leave the fan on the chip's automatic curve while the controller
// believed it was in command.

TEST(PidResetBug, ReassertsAndWritesAfterReset) {
  ControllerRig rig;
  core::PidFanConfig cfg;
  cfg.setpoint = Celsius{50.0};
  core::PidFanController pid{*rig.hwmon, cfg};

  // Settle exactly at the setpoint: error 0 every tick, duty clamps to the
  // minimum and stops changing, so the write-suppression path is active.
  SimTime now = rig.run_flat(pid, 50.0, 8);
  const DutyCycle settled = pid.current_duty();

  pid.reset();
  EXPECT_EQ(pid.actuations(), 0u);  // counters cleared too

  // Same temperature, same computed duty as before the reset: the write
  // must happen anyway, because after reset the hardware is unknown.
  now.advance_us(250000);
  rig.tick(pid, 50.0, now);
  EXPECT_EQ(pid.actuations(), 1u);
  EXPECT_DOUBLE_EQ(pid.current_duty().percent(), settled.percent());
}

TEST(PidResetBug, ResetClearsController) {
  ControllerRig rig;
  core::PidFanController pid{*rig.hwmon, core::PidFanConfig{}};
  rig.run_flat(pid, 70.0, 12);  // hot: integrator and duty wind up
  EXPECT_GT(pid.actuations(), 0u);
  pid.reset();
  EXPECT_EQ(pid.integrator(), 0.0);
  EXPECT_EQ(pid.actuations(), 0u);
  EXPECT_DOUBLE_EQ(pid.current_duty().percent(), 0.0);
}

// ---- Bug 2: RAPL energy wraparound read as a power spike ----
//
// The kernel's energy_uj counter wraps at max_energy_range_uj (~65.5 kJ —
// minutes of runtime at server power). PredictiveFanController and
// PowerCapper computed round power as `energy - last`, which across the
// wrap underflows std::uint64_t to ~1.8e19 µJ: an astronomically large
// "power" that slammed the predictive fan's feed-forward term to the most
// effective mode and made the power capper throttle for nothing.

TEST(RaplWrapBug, DeltaHelperHandlesWrap) {
  using sysfs::RaplDomain;
  const std::uint64_t range = RaplDomain::kMaxEnergyRangeUj;
  // Monotone case unchanged.
  EXPECT_EQ(RaplDomain::energy_delta_uj(1000, 5000), 4000u);
  // Across the wrap: prev→range is (range − prev), range→0 is one count,
  // 0→cur is cur.
  EXPECT_EQ(RaplDomain::energy_delta_uj(range - 100, 400), 501u);
  EXPECT_EQ(RaplDomain::energy_delta_uj(range, 0), 1u);
  EXPECT_EQ(RaplDomain::energy_delta_uj(0, 0), 0u);
}

TEST(RaplWrapBug, DomainCounterActuallyWraps) {
  ControllerRig rig;
  sysfs::RaplDomain rapl{rig.fs, "/sys/class/powercap", 0, rig.cpu};
  rig.cpu.set_utilization(Utilization{0.8});
  rig.cpu.preset_counters(0, 0, sysfs::RaplDomain::kMaxEnergyRangeUj - 1'000'000ULL);
  EXPECT_GT(rapl.energy_uj(), sysfs::RaplDomain::kMaxEnergyRangeUj - 2'000'000ULL);
  for (int i = 0; i < 40; ++i) {
    rig.cpu.advance_counters(Seconds{0.25});
  }
  // 10 s at tens of watts is tens of joules: far past the 1 J headroom.
  EXPECT_LT(rapl.energy_uj(), sysfs::RaplDomain::kMaxEnergyRangeUj - 2'000'000ULL);
}

TEST(RaplWrapBug, PredictiveFanIgnoresWrap) {
  ControllerRig rig;
  sysfs::RaplDomain rapl{rig.fs, "/sys/class/powercap", 0, rig.cpu};
  rig.cpu.set_utilization(Utilization{0.7});
  // A few rounds' energy below the wrap, so it falls in a round whose
  // power is compared with the one before.
  rig.cpu.preset_counters(0, 0, sysfs::RaplDomain::kMaxEnergyRangeUj - 200'000'000ULL);

  core::PredictiveFanController fan{*rig.hwmon, rapl, core::PredictiveFanConfig{}};
  SimTime now;
  for (int i = 0; i < 80; ++i) {
    now.advance_us(250000);
    rig.cpu.advance_counters(Seconds{0.25});
    rig.tick(fan, 48.0, now);
  }
  // Flat temperature + constant load across the wrap: without the
  // wrap-correct delta the feed-forward term saw a ~1.8e19 µJ "round" and
  // retargeted to the most effective duty.
  EXPECT_TRUE(fan.events().empty());
  EXPECT_EQ(fan.feedforward_count(), 0u);
  EXPECT_EQ(fan.current_index(), 0u);
}

TEST(RaplWrapBug, PowerCapperIgnoresWrap) {
  ControllerRig rig;
  sysfs::RaplDomain rapl{rig.fs, "/sys/class/powercap", 0, rig.cpu};
  rig.cpu.set_utilization(Utilization{0.3});
  rig.cpu.preset_counters(0, 0, sysfs::RaplDomain::kMaxEnergyRangeUj - 1'000'000ULL);

  core::PowerCapConfig cfg;
  cfg.budget = Watts{120.0};  // comfortably above actual draw
  core::PowerCapper capper{rapl, *rig.cpufreq, cfg};
  SimTime now;
  const long nominal = rig.cpufreq->cur_khz();
  for (int i = 0; i < 20; ++i) {
    now.advance_us(1'000'000);
    for (int k = 0; k < 4; ++k) {
      rig.cpu.advance_counters(Seconds{0.25});
    }
    capper.on_interval(now);
    // Across the wrap the measured power must stay physical — the raw
    // subtraction produced ~1.8e13 W and a spurious throttle.
    EXPECT_LT(capper.last_power_w(), 500.0) << "interval " << i;
  }
  EXPECT_EQ(capper.overshoot_seconds(), 0.0);
  EXPECT_EQ(rig.cpufreq->cur_khz(), nominal);
}

// ---- Bug 3: StepWiseGovernor first-sample trend + missing hysteresis ----
//
// The governor initialized `last_temp_` to a −1e9 sentinel, so the first
// sample's trend computed as temp − (−1e9): a colossal "rising" edge. A
// zone already above its passive trip at governor start stepped every
// cooling device up on sample one, off a trend that never happened. The
// rewrite primes on the first sample (trend 0) and adds the kernel-style
// step-down hysteresis: above trip but cooling, devices unwind only after
// `cooling_consistency` consecutive falling samples.

struct ZoneRig {
  sysfs::VirtualFs fs;
  double truth = 45.0;
  sysfs::ThermalZone zone{fs, "/sys/class/thermal", 0, "repro",
                          [this] { return Celsius{truth}; }};
  double fan_duty = 10.0;
  sysfs::FanCoolingAdapter fan{[this](DutyCycle d) {
                                 fan_duty = d.percent();
                                 return true;
                               },
                               DutyCycle{10.0}, DutyCycle{100.0}, 9};

  ZoneRig() {
    zone.add_trip({Celsius{51.0}, sysfs::TripType::kPassive});
    zone.add_trip({Celsius{90.0}, sysfs::TripType::kCritical});
    zone.bind(&fan);
  }

  void feed(core::StepWiseGovernor& gov, std::initializer_list<double> temps) {
    SimTime now;
    for (double t : temps) {
      truth = t;
      now.advance_us(250000);
      gov.on_sample(now);
    }
  }
};

TEST(StepWiseFirstSampleBug, HotStartDoesNotStepOnSampleOne) {
  ZoneRig rig;
  core::StepWiseGovernor gov{rig.zone};
  rig.feed(gov, {60.0});  // governor starts with the zone already hot
  // One sample carries no trend: stepping here acted on the sentinel edge.
  EXPECT_EQ(gov.steps_up(), 0u);
  EXPECT_EQ(rig.fan.cooling_state(), 0);
}

TEST(StepWiseFirstSampleBug, SecondSampleEstablishesRealTrend) {
  ZoneRig rig;
  core::StepWiseGovernor gov{rig.zone};
  rig.feed(gov, {60.0, 61.0});  // now genuinely rising above trip
  EXPECT_EQ(gov.steps_up(), 1u);
}

TEST(StepWiseHysteresis, CoolingAboveTripUnwindsAfterConsistency) {
  ZoneRig rig;
  core::StepWiseConfig cfg;
  cfg.cooling_consistency = 3;
  core::StepWiseGovernor gov{rig.zone, cfg};
  rig.feed(gov, {52.0, 53.0, 54.0, 55.0});  // build response while rising
  const long peak = rig.fan.cooling_state();
  ASSERT_GE(peak, 2);

  // Two falling samples above the trip: not consistent yet, hold.
  rig.feed(gov, {54.5, 54.0});
  EXPECT_EQ(rig.fan.cooling_state(), peak);
  EXPECT_EQ(gov.steps_down(), 0u);

  // Third consecutive falling sample releases exactly one step.
  rig.feed(gov, {53.5});
  EXPECT_EQ(rig.fan.cooling_state(), peak - 1);
  EXPECT_EQ(gov.steps_down(), 1u);
}

TEST(StepWiseHysteresis, RisingSampleResetsTheStreak) {
  ZoneRig rig;
  core::StepWiseConfig cfg;
  cfg.cooling_consistency = 3;
  core::StepWiseGovernor gov{rig.zone, cfg};
  rig.feed(gov, {52.0, 53.0, 54.0, 55.0});
  const long peak = rig.fan.cooling_state();

  // falling, falling, RISING, falling, falling: never three in a row.
  rig.feed(gov, {54.5, 54.0, 54.6, 54.2, 53.8});
  EXPECT_GE(rig.fan.cooling_state(), peak);  // the rise may even step up
  EXPECT_EQ(gov.steps_down(), 0u);
}

}  // namespace
}  // namespace thermctl::verify
