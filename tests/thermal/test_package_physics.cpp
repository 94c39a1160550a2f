// The package chain's physics against closed forms, solved on one row.
//
// With x = T − T_ss (the offset from the steady state), the chain is the
// linear system x' = A·x with
//
//   A = [ −G_dhs/C_die          G_dhs/C_die          ]
//       [  G_dhs/C_hs   −(G_dhs + G_conv)/C_hs       ]
//
// whose two real, negative eigenvalues λ1 ≠ λ2 give the exact transient by
// Sylvester's formula, e^{At} = (e^{λ1·t}(A − λ2·I) − e^{λ2·t}(A − λ1·I)) /
// (λ1 − λ2), and whose steady state puts all die power through both
// resistances in series.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "thermal/package_model.hpp"

namespace thermctl::thermal {
namespace {

/// One package row from ambient, with its convection set to `r_conv` K/W.
PackageColumns one_row(double r_conv, const PackageParams& p = PackageParams{}) {
  PackageColumns g{1, p};
  g.g_conv[0] = 1.0 / r_conv;
  return g;
}

struct ChainTemps {
  double die;
  double heatsink;
};

/// Steady state of row 0 of `g` under its power, convection and ambient.
ChainTemps steady_state(const PackageColumns& g) {
  const double hs = g.t_amb[0] + g.p_die[0] / g.g_conv[0];
  return {hs + g.p_die[0] / g.g_die_hs, hs};
}

/// Row 0's exact temperatures `t` seconds after the state it holds now,
/// under its current inputs.
ChainTemps closed_form(const PackageColumns& g, double t) {
  const double c1 = g.params.c_die.value();
  const double c2 = g.params.c_heatsink.value();
  const double a11 = -g.g_die_hs / c1;
  const double a12 = g.g_die_hs / c1;
  const double a21 = g.g_die_hs / c2;
  const double a22 = -(g.g_die_hs + g.g_conv[0]) / c2;
  const double half_trace = (a11 + a22) / 2.0;
  const double root = std::sqrt(half_trace * half_trace - (a11 * a22 - a12 * a21));
  const double l1 = half_trace + root;
  const double l2 = half_trace - root;
  const ChainTemps ss = steady_state(g);
  const double x1 = g.t_die[0] - ss.die;
  const double x2 = g.t_hs[0] - ss.heatsink;
  const double e1 = std::exp(l1 * t) / (l1 - l2);
  const double e2 = std::exp(l2 * t) / (l1 - l2);
  // e^{At}·x, one matrix entry at a time.
  const double m11 = e1 * (a11 - l2) - e2 * (a11 - l1);
  const double m12 = (e1 - e2) * a12;
  const double m21 = (e1 - e2) * a21;
  const double m22 = e1 * (a22 - l2) - e2 * (a22 - l1);
  return {ss.die + m11 * x1 + m12 * x2, ss.heatsink + m21 * x1 + m22 * x2};
}

TEST(PackagePhysics, ExponentialRiseMatchesClosedForm) {
  // A load step from ambient at the engine's 50 ms step: the die's seconds
  // scale and the heatsink's minutes scale both track the exact transient.
  PackageColumns g = one_row(0.5);
  g.p_die[0] = 60.0;
  const PackageColumns start = g;
  double elapsed = 0.0;
  for (const double until : {2.0, 10.0, 60.0, 300.0}) {
    while (elapsed < until - 1e-9) {
      g.step_range(Seconds{0.05}, 0, 1);
      elapsed += 0.05;
    }
    SCOPED_TRACE(until);
    const ChainTemps exact = closed_form(start, elapsed);
    // Explicit Euler at h = 50 ms carries a local error of order h / tau.
    EXPECT_NEAR(g.t_die[0], exact.die, 0.02 * (exact.die - g.t_amb[0]));
    EXPECT_NEAR(g.t_hs[0], exact.heatsink, 0.02 * (exact.heatsink - g.t_amb[0]));
  }
}

TEST(PackagePhysics, CoolsBackToAmbientWhenPowerRemoved) {
  PackageColumns g = one_row(0.4);
  g.p_die[0] = 60.0;
  g.settle_range(0, 1);
  EXPECT_NEAR(g.t_die[0], steady_state(g).die, 1e-4);
  g.p_die[0] = 0.0;
  const ChainTemps exact = closed_form(g, 30.0);
  g.step_range(Seconds{30.0}, 0, 1);
  EXPECT_NEAR(g.t_die[0], exact.die, 0.02 * (exact.die - g.t_amb[0]));
  EXPECT_NEAR(g.t_hs[0], exact.heatsink, 0.02 * (exact.heatsink - g.t_amb[0]));
  g.step_range(Seconds{2000.0}, 0, 1);
  EXPECT_NEAR(g.t_die[0], g.t_amb[0], 1e-6);
  EXPECT_NEAR(g.t_hs[0], g.t_amb[0], 1e-6);
}

TEST(PackagePhysics, TemperatureNeverOvershootsSteadyStateFromBelow) {
  // An RC ladder driven from rest rises monotonically to its steady state:
  // no node ever overshoots.
  PackageColumns g = one_row(0.3);
  g.p_die[0] = 80.0;
  const ChainTemps ss = steady_state(g);
  double prev_die = g.t_die[0];
  double prev_hs = g.t_hs[0];
  for (int i = 0; i < 2000; ++i) {
    g.step_range(Seconds{0.25}, 0, 1);
    EXPECT_GE(g.t_die[0], prev_die);
    EXPECT_GE(g.t_hs[0], prev_hs);
    EXPECT_LE(g.t_die[0], ss.die + 1e-9);
    EXPECT_LE(g.t_hs[0], ss.heatsink + 1e-9);
    prev_die = g.t_die[0];
    prev_hs = g.t_hs[0];
  }
}

TEST(PackagePhysics, LargeStepRemainsStable) {
  // Sub-stepping must keep explicit Euler stable for steps far beyond the
  // smaller time constant: a tight convection and a light heatsink put it
  // well under a second, and one call steps 1000 s.
  PackageParams p;
  p.c_heatsink = JoulesPerKelvin{20.0};
  PackageColumns g = one_row(0.02, p);
  g.p_die[0] = 50.0;
  ASSERT_LT(g.min_time_constant(0), 0.5);
  g.step_range(Seconds{1000.0}, 0, 1);
  EXPECT_NEAR(g.t_die[0], steady_state(g).die, 1e-6);
  EXPECT_NEAR(g.t_hs[0], steady_state(g).heatsink, 1e-6);
}

TEST(PackagePhysics, EnergyConservedInClosedPair) {
  // With the convection cut, die and heatsink only exchange heat: their
  // total thermal energy (C·T summed) is conserved, and they relax toward
  // the common temperature it implies.
  const PackageParams p;
  PackageColumns g{1, p};
  g.g_conv[0] = 0.0;
  g.t_die[0] = 80.0;
  g.t_hs[0] = 20.0;
  const double c1 = p.c_die.value();
  const double c2 = p.c_heatsink.value();
  const double e0 = c1 * 80.0 + c2 * 20.0;
  g.step_range(Seconds{5.0}, 0, 1);
  EXPECT_NEAR(c1 * g.t_die[0] + c2 * g.t_hs[0], e0, 1e-9 * e0);
  g.step_range(Seconds{500.0}, 0, 1);
  EXPECT_NEAR(g.t_die[0], e0 / (c1 + c2), 1e-6);
  EXPECT_NEAR(g.t_hs[0], e0 / (c1 + c2), 1e-6);
}

TEST(PackagePhysics, TwoNodeChainSteadyState) {
  // Off the default parameters: the die-heatsink conductance comes from the
  // params' resistance, and all power flows through both resistances in
  // series whatever the capacitances.
  PackageParams p;
  p.c_die = JoulesPerKelvin{20.0};
  p.c_heatsink = JoulesPerKelvin{300.0};
  p.r_die_heatsink = KelvinPerWatt{0.12};
  p.ambient = Celsius{25.0};
  PackageColumns g = one_row(0.30, p);
  EXPECT_NEAR(g.g_die_hs, 1.0 / 0.12, 1e-12);
  g.p_die[0] = 50.0;
  g.settle_range(0, 1);
  EXPECT_NEAR(g.t_hs[0], 25.0 + 50.0 * 0.30, 1e-3);
  EXPECT_NEAR(g.t_die[0], 25.0 + 50.0 * 0.42, 1e-3);
}

TEST(PackagePhysics, AmbientIsABoundary) {
  PackageColumns g = one_row(0.5);
  g.p_die[0] = 40.0;
  const double ambient = g.t_amb[0];
  g.step_range(Seconds{100.0}, 0, 1);
  EXPECT_EQ(g.t_amb[0], ambient);
  g.t_amb[0] = 35.0;
  g.settle_range(0, 1);
  EXPECT_NEAR(g.t_die[0], 35.0 + 40.0 * (0.1 + 0.5), 1e-3);
}

TEST(PackagePhysics, ConvectionUpdateShiftsEquilibrium) {
  PackageColumns g = one_row(0.5);
  g.p_die[0] = 40.0;
  g.settle_range(0, 1);
  EXPECT_NEAR(g.t_die[0], g.t_amb[0] + 40.0 * 0.6, 1e-3);
  // Fan speeds up: convection resistance halves, equilibrium drops.
  g.g_conv[0] = 1.0 / 0.25;
  g.settle_range(0, 1);
  EXPECT_NEAR(g.t_die[0], g.t_amb[0] + 40.0 * 0.35, 1e-3);
}

TEST(PackagePhysics, MinTimeConstantIsTheSmallerNodeTau) {
  PackageParams p;
  // The die's C / G = 22 * 0.1 = 2.2 s; the heatsink's 150 / (10 + 2) s.
  EXPECT_NEAR(one_row(0.5, p).min_time_constant(0), 2.2, 1e-12);
  // A light heatsink in a strong draught: 20 / (10 + 50) s.
  p.c_heatsink = JoulesPerKelvin{20.0};
  EXPECT_NEAR(one_row(0.02, p).min_time_constant(0), 20.0 / 60.0, 1e-12);
}

// Property sweep: steady state is linear in power for a range of (P, R).
class PackageSteadyStateSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PackageSteadyStateSweep, SteadyStateLinearInPowerAndResistance) {
  const auto [power, r_conv] = GetParam();
  PackageColumns g = one_row(r_conv);
  g.p_die[0] = power;
  g.settle_range(0, 1);
  EXPECT_NEAR(g.t_hs[0], g.t_amb[0] + power * r_conv, 1e-3);
  EXPECT_NEAR(g.t_die[0], g.t_amb[0] + power * (0.1 + r_conv), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(PowerResistanceGrid, PackageSteadyStateSweep,
                         ::testing::Combine(::testing::Values(5.0, 20.0, 65.0, 110.0),
                                            ::testing::Values(0.1, 0.3, 0.6, 1.2)));

TEST(PackageColumnsDeath, RejectsNonPositiveDieHeatsinkResistance) {
  PackageParams p;
  p.r_die_heatsink = KelvinPerWatt{0.0};
  EXPECT_DEATH(PackageColumns(1, p), "positive");
}

TEST(PackageColumnsDeath, RejectsNonPositiveCapacitance) {
  PackageParams die;
  die.c_die = JoulesPerKelvin{0.0};
  EXPECT_DEATH(PackageColumns(1, die), "capacitance");
  PackageParams heatsink;
  heatsink.c_heatsink = JoulesPerKelvin{-1.0};
  EXPECT_DEATH(PackageColumns(1, heatsink), "capacitance");
}

TEST(PackageColumnsDeath, RejectsEmptyGroup) {
  EXPECT_DEATH(PackageColumns(0, PackageParams{}), "at least one row");
}

TEST(PackageColumnsDeath, RejectsNonPositiveStep) {
  PackageColumns g = one_row(0.5);
  EXPECT_DEATH(g.step_range(Seconds{0.0}, 0, 1), "positive");
  EXPECT_DEATH(g.step_range(Seconds{-0.05}, 0, 1), "positive");
}

TEST(PackageColumnsDeath, RejectsRowRangeOutOfBounds) {
  PackageColumns g{2, PackageParams{}};
  EXPECT_DEATH(g.step_range(Seconds{0.05}, 0, 3), "out of bounds");
  EXPECT_DEATH(g.step_range(Seconds{0.05}, 2, 1), "out of bounds");
  EXPECT_DEATH(g.settle_range(0, 3), "out of bounds");
  EXPECT_DEATH(g.settle_range(2, 1), "out of bounds");
}

}  // namespace
}  // namespace thermctl::thermal
