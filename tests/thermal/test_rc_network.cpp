// RC network physics, solved by RcBatch on one column, and the RcNetwork
// topology builder's input checks.
#include "thermal/rc_network.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "thermal/rc_batch.hpp"

namespace thermctl::thermal {
namespace {

using namespace thermctl::literals;

// A single node R-C against a fixed ambient: T(t) = T_amb + P*R*(1 - e^(-t/RC)),
// integrated as a one-column batch.
struct SingleNodeRig {
  NodeId node{};
  NodeId amb{};
  EdgeId edge{};
  RcBatch batch;

  SingleNodeRig(double c, double r, double t_amb = 25.0) : batch(wire(c, r, t_amb)) {}

  void set_power(Watts p) { batch.set_power(0, node, p); }
  void step(Seconds dt) { batch.step_one(0, dt); }
  void settle() { batch.settle(0); }
  [[nodiscard]] double temp() const { return batch.temperature(0, node).value(); }

 private:
  RcBatch wire(double c, double r, double t_amb) {
    RcNetwork net;
    node = net.add_node("n", JoulesPerKelvin{c}, Celsius{t_amb});
    amb = net.add_fixed_node("amb", Celsius{t_amb});
    edge = net.add_edge(node, amb, KelvinPerWatt{r});
    return RcBatch{net, 1};
  }
};

TEST(RcPhysics, SteadyStateMatchesAnalyticSolution) {
  SingleNodeRig rig{100.0, 0.5};
  rig.set_power(40.0_W);
  rig.settle();
  // T_ss = 25 + 40 * 0.5 = 45.
  EXPECT_NEAR(rig.temp(), 45.0, 1e-4);
}

TEST(RcPhysics, ExponentialRiseMatchesAnalytic) {
  SingleNodeRig rig{100.0, 0.5};  // tau = 50 s
  rig.set_power(40.0_W);
  rig.step(Seconds{50.0});  // one time constant
  const double expected = 25.0 + 20.0 * (1.0 - std::exp(-1.0));
  // Explicit Euler at tau/8 sub-steps carries a few-percent local error.
  EXPECT_NEAR(rig.temp(), expected, 0.6);
}

TEST(RcPhysics, CoolsBackToAmbientWhenPowerRemoved) {
  SingleNodeRig rig{50.0, 0.4};
  rig.set_power(60.0_W);
  rig.settle();
  rig.set_power(0.0_W);
  rig.step(Seconds{500.0});
  EXPECT_NEAR(rig.temp(), 25.0, 0.05);
}

TEST(RcPhysics, TemperatureNeverOvershootsSteadyStateFromBelow) {
  SingleNodeRig rig{20.0, 0.3};
  rig.set_power(80.0_W);
  const double t_ss = 25.0 + 80.0 * 0.3;
  double prev = 25.0;
  for (int i = 0; i < 400; ++i) {
    rig.step(Seconds{0.25});
    const double t = rig.temp();
    EXPECT_GE(t + 1e-9, prev);  // monotone rise
    EXPECT_LE(t, t_ss + 1e-6);  // no overshoot (first-order system)
    prev = t;
  }
}

TEST(RcPhysics, TwoNodeChainSteadyState) {
  RcNetwork net;
  const NodeId die = net.add_node("die", JoulesPerKelvin{20.0}, 25.0_degC);
  const NodeId hs = net.add_node("hs", JoulesPerKelvin{300.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  net.add_edge(die, hs, KelvinPerWatt{0.12});
  net.add_edge(hs, amb, KelvinPerWatt{0.30});
  RcBatch batch{net, 1};
  batch.set_power(0, die, 50.0_W);
  batch.settle(0);
  // All power flows through both resistances in series.
  EXPECT_NEAR(batch.temperature(0, hs).value(), 25.0 + 50.0 * 0.30, 1e-3);
  EXPECT_NEAR(batch.temperature(0, die).value(), 25.0 + 50.0 * 0.42, 1e-3);
}

TEST(RcPhysics, ResistanceUpdateShiftsEquilibrium) {
  SingleNodeRig rig{50.0, 0.5};
  rig.set_power(40.0_W);
  rig.settle();
  EXPECT_NEAR(rig.temp(), 45.0, 1e-3);
  // Fan speeds up: resistance halves, equilibrium drops.
  rig.batch.set_resistance(0, rig.edge, KelvinPerWatt{0.25});
  rig.settle();
  EXPECT_NEAR(rig.temp(), 35.0, 1e-3);
}

TEST(RcPhysics, ResistanceAccessorRoundTrips) {
  SingleNodeRig rig{10.0, 0.5};
  EXPECT_NEAR(rig.batch.resistance(0, rig.edge).value(), 0.5, 1e-12);
  rig.batch.set_resistance(0, rig.edge, KelvinPerWatt{0.125});
  EXPECT_NEAR(rig.batch.resistance(0, rig.edge).value(), 0.125, 1e-12);
}

TEST(RcPhysics, FixedNodeTemperatureIsBoundary) {
  SingleNodeRig rig{50.0, 0.5};
  rig.set_power(40.0_W);
  rig.step(Seconds{100.0});
  EXPECT_DOUBLE_EQ(rig.batch.temperature(0, rig.amb).value(), 25.0);
  rig.batch.set_fixed_temperature(0, rig.amb, 35.0_degC);
  rig.settle();
  EXPECT_NEAR(rig.temp(), 55.0, 1e-3);
}

TEST(RcPhysics, MinTimeConstantIsSmallestTau) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{10.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  net.add_edge(a, amb, KelvinPerWatt{0.5});  // tau = 5 s
  EXPECT_NEAR(RcBatch(net, 1).min_time_constant(0).value(), 5.0, 1e-9);

  const NodeId b = net.add_node("b", JoulesPerKelvin{1.0}, 25.0_degC);
  net.add_edge(b, amb, KelvinPerWatt{0.5});  // tau = 0.5 s
  EXPECT_NEAR(RcBatch(net, 1).min_time_constant(0).value(), 0.5, 1e-9);
}

TEST(RcPhysics, LargeStepRemainsStable) {
  // Sub-stepping must keep explicit Euler stable even for steps far beyond
  // the smallest time constant.
  SingleNodeRig rig{1.0, 0.1};  // tau = 0.1 s
  rig.set_power(50.0_W);
  rig.step(Seconds{10.0});  // 100x tau in one call
  EXPECT_NEAR(rig.temp(), 30.0, 0.05);
}

TEST(RcPhysics, EnergyConservationInClosedPair) {
  // Two dynamic nodes exchanging heat with no boundary: total thermal energy
  // (C*T summed) must be conserved.
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{10.0}, 80.0_degC);
  const NodeId b = net.add_node("b", JoulesPerKelvin{30.0}, 20.0_degC);
  net.add_edge(a, b, KelvinPerWatt{0.5});
  RcBatch batch{net, 1};
  const double e0 = 10.0 * 80.0 + 30.0 * 20.0;
  batch.step_one(0, Seconds{5.0});
  const double e1 =
      10.0 * batch.temperature(0, a).value() + 30.0 * batch.temperature(0, b).value();
  EXPECT_NEAR(e0, e1, 1e-6);
  // And they relax toward the common temperature e0 / (C_a + C_b) = 35.
  batch.step_one(0, Seconds{500.0});
  EXPECT_NEAR(batch.temperature(0, a).value(), 35.0, 0.01);
  EXPECT_NEAR(batch.temperature(0, b).value(), 35.0, 0.01);
}

TEST(RcNetwork, NodeNamesStored) {
  RcNetwork net;
  const NodeId a = net.add_node("die", JoulesPerKelvin{1.0}, 25.0_degC);
  EXPECT_EQ(net.node_name(a), "die");
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(RcBatch(net, 1).node_name(a), "die");
}

TEST(RcNetworkDeath, RejectsNonPositiveResistance) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{1.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  EXPECT_DEATH(net.add_edge(a, amb, KelvinPerWatt{0.0}), "positive");
}

TEST(RcBatchDeath, RejectsPowerIntoFixedNode) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{1.0}, 25.0_degC);
  const NodeId amb = net.add_fixed_node("amb", 25.0_degC);
  net.add_edge(a, amb, KelvinPerWatt{1.0});
  RcBatch batch{net, 1};
  EXPECT_DEATH(batch.set_power(0, amb, Watts{1.0}), "fixed");
}

TEST(RcNetworkDeath, RejectsSelfEdge) {
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{1.0}, 25.0_degC);
  EXPECT_DEATH(net.add_edge(a, a, KelvinPerWatt{1.0}), "self");
}

// Property sweep: steady state is linear in power for a range of (P, R).
class RcSteadyStateSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RcSteadyStateSweep, SteadyStateLinearInPowerAndResistance) {
  const auto [power, resistance] = GetParam();
  SingleNodeRig rig{40.0, resistance};
  rig.set_power(Watts{power});
  rig.settle();
  EXPECT_NEAR(rig.temp(), 25.0 + power * resistance, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(PowerResistanceGrid, RcSteadyStateSweep,
                         ::testing::Combine(::testing::Values(5.0, 20.0, 65.0, 110.0),
                                            ::testing::Values(0.1, 0.3, 0.6, 1.2)));

}  // namespace
}  // namespace thermctl::thermal
