// Equivalence of the RC solver against the seed implementation.
//
// RcBatch flattens adjacency into a shared CSR layout, stores B instances in
// SoA columns and keeps the stability bound per column fresh;
// this test pins it against a direct re-implementation of the original
// edge-list solver (alloc-per-step, recompute-everything) and requires
// trajectories to agree to 1e-9 degC — the solver is a layout/caching
// change, not a numerical one. Exercised on the package-model wiring (with
// fan-like per-step resistance updates) and on a randomized 32-node network,
// each as a batch of one and as a batch of five whose columns receive
// different inputs, every column checked against its own reference.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "thermal/package_model.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {
namespace {

// Line-for-line port of the seed RcNetwork integrator (pre-CSR): edge-list
// flux accumulation, min time constant recomputed (with allocation) every
// step, no caching anywhere.
class ReferenceRcNetwork {
 public:
  std::size_t add_node(double capacitance, double t0) {
    cap_.push_back(capacitance);
    temp_.push_back(t0);
    power_.push_back(0.0);
    fixed_.push_back(false);
    return cap_.size() - 1;
  }
  std::size_t add_fixed_node(double t) {
    cap_.push_back(0.0);
    temp_.push_back(t);
    power_.push_back(0.0);
    fixed_.push_back(true);
    return cap_.size() - 1;
  }
  std::size_t add_edge(std::size_t a, std::size_t b, double r) {
    ea_.push_back(a);
    eb_.push_back(b);
    g_.push_back(1.0 / r);
    return g_.size() - 1;
  }
  void set_resistance(std::size_t e, double r) { g_[e] = 1.0 / r; }
  void set_power(std::size_t n, double p) { power_[n] = p; }
  void set_fixed_temperature(std::size_t n, double t) { temp_[n] = t; }
  [[nodiscard]] double temperature(std::size_t n) const { return temp_[n]; }

  [[nodiscard]] double min_time_constant() const {
    std::vector<double> conductance(cap_.size(), 0.0);
    for (std::size_t e = 0; e < g_.size(); ++e) {
      conductance[ea_[e]] += g_[e];
      conductance[eb_[e]] += g_[e];
    }
    double min_tau = 1e30;
    for (std::size_t i = 0; i < cap_.size(); ++i) {
      if (!fixed_[i] && conductance[i] > 0.0) {
        min_tau = std::min(min_tau, cap_[i] / conductance[i]);
      }
    }
    return min_tau;
  }

  void step(double dt) {
    const double max_sub = std::max(1e-6, min_time_constant() / 8.0);
    const int substeps = std::max(1, static_cast<int>(std::ceil(dt / max_sub)));
    const double h = dt / substeps;
    for (int s = 0; s < substeps; ++s) {
      euler_substep(h);
    }
  }

 private:
  void euler_substep(double dt) {
    std::vector<double> flux(cap_.size(), 0.0);
    for (std::size_t e = 0; e < g_.size(); ++e) {
      const double q = (temp_[ea_[e]] - temp_[eb_[e]]) * g_[e];
      flux[ea_[e]] -= q;
      flux[eb_[e]] += q;
    }
    for (std::size_t i = 0; i < cap_.size(); ++i) {
      if (!fixed_[i]) {
        temp_[i] += dt * (power_[i] + flux[i]) / cap_[i];
      }
    }
  }

  std::vector<double> cap_;
  std::vector<double> temp_;
  std::vector<double> power_;
  std::vector<bool> fixed_;
  std::vector<std::size_t> ea_;
  std::vector<std::size_t> eb_;
  std::vector<double> g_;
};

// Batch sizes: a single package, and a fleet whose columns diverge.
class RcEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RcEquivalence, PackageModelWiringMatchesReference) {
  // The die--heatsink--ambient chain of PackageParams, with the
  // heatsink-ambient resistance modulated per step the way fan-dependent
  // convection modulates it in a real run.
  const std::size_t columns = GetParam();
  const PackageParams p;

  RcNetwork net;
  const NodeId die = net.add_node("die", p.c_die, Celsius{40.0});
  const NodeId hs = net.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  const NodeId amb = net.add_fixed_node("ambient", p.ambient);
  net.add_edge(die, hs, p.r_die_heatsink);
  const EdgeId conv = net.add_edge(hs, amb, KelvinPerWatt{0.5});
  RcBatch batch{net, columns};

  std::vector<ReferenceRcNetwork> refs(columns);
  std::size_t rdie = 0;
  std::size_t rhs = 0;
  std::size_t rconv = 0;
  for (ReferenceRcNetwork& ref : refs) {
    rdie = ref.add_node(p.c_die.value(), 40.0);
    rhs = ref.add_node(p.c_heatsink.value(), 35.0);
    const std::size_t ramb = ref.add_fixed_node(p.ambient.value());
    ref.add_edge(rdie, rhs, p.r_die_heatsink.value());
    rconv = ref.add_edge(rhs, ramb, 0.5);
  }

  Rng rng{42};
  const double dt = 0.05;
  for (int step = 0; step < 20000; ++step) {
    for (std::size_t b = 0; b < columns; ++b) {
      // Power swings between idle and cpu-burn; convection follows a
      // fan-ramp-like trajectory. Every column draws its own.
      const double power = 20.0 + 70.0 * rng.uniform();
      const double r_conv = 0.15 + 0.5 * rng.uniform();
      batch.set_power(b, die, Watts{power});
      batch.set_resistance(b, conv, KelvinPerWatt{r_conv});
      refs[b].set_power(rdie, power);
      refs[b].set_resistance(rconv, r_conv);
    }

    batch.step_all(Seconds{dt});
    for (std::size_t b = 0; b < columns; ++b) {
      refs[b].step(dt);
      ASSERT_NEAR(batch.temperature(b, die).value(), refs[b].temperature(rdie), 1e-9)
          << "column " << b << " step " << step;
      ASSERT_NEAR(batch.temperature(b, hs).value(), refs[b].temperature(rhs), 1e-9)
          << "column " << b << " step " << step;
    }
  }
}

TEST_P(RcEquivalence, Randomized32NodeNetworkMatchesReference) {
  const std::size_t columns = GetParam();
  Rng rng{20260806};
  constexpr std::size_t kNodes = 32;

  RcNetwork net;
  std::vector<ReferenceRcNetwork> refs(columns);
  std::vector<NodeId> ids;
  std::vector<bool> fixed(kNodes, false);
  for (std::size_t i = 0; i < kNodes; ++i) {
    // A few boundary nodes scattered through the network.
    if (i % 11 == 3) {
      const double t = 20.0 + 10.0 * rng.uniform();
      ids.push_back(net.add_fixed_node("amb" + std::to_string(i), Celsius{t}));
      for (ReferenceRcNetwork& ref : refs) {
        ref.add_fixed_node(t);
      }
      fixed[i] = true;
    } else {
      const double c = 5.0 + 200.0 * rng.uniform();
      const double t0 = 25.0 + 30.0 * rng.uniform();
      ids.push_back(net.add_node("n" + std::to_string(i), JoulesPerKelvin{c}, Celsius{t0}));
      for (ReferenceRcNetwork& ref : refs) {
        ref.add_node(c, t0);
      }
    }
  }
  // A connected random graph: chain backbone plus random chords.
  std::vector<EdgeId> edges;
  auto add_edge = [&](std::size_t a, std::size_t b, double r) {
    edges.push_back(net.add_edge(ids[a], ids[b], KelvinPerWatt{r}));
    for (ReferenceRcNetwork& ref : refs) {
      ref.add_edge(a, b, r);
    }
  };
  for (std::size_t i = 1; i < kNodes; ++i) {
    add_edge(i - 1, i, 0.2 + 2.0 * rng.uniform());
  }
  for (int k = 0; k < 24; ++k) {
    const std::size_t a = rng.below(kNodes);
    const std::size_t b = rng.below(kNodes);
    if (a == b) {
      continue;
    }
    add_edge(a, b, 0.2 + 2.0 * rng.uniform());
  }
  RcBatch batch{net, columns};

  const double dt = 0.05;
  for (int step = 0; step < 4000; ++step) {
    // Mutate a random subset of each column's powers and resistances every
    // step to stress the cache-invalidation paths.
    for (std::size_t b = 0; b < columns; ++b) {
      for (int m = 0; m < 4; ++m) {
        const std::size_t n = rng.below(kNodes);
        if (!fixed[n]) {
          const double p = 50.0 * rng.uniform();
          batch.set_power(b, ids[n], Watts{p});
          refs[b].set_power(n, p);
        }
        const std::size_t e = rng.below(edges.size());
        const double r = 0.2 + 2.0 * rng.uniform();
        batch.set_resistance(b, edges[e], KelvinPerWatt{r});
        refs[b].set_resistance(e, r);
      }
    }

    batch.step_all(Seconds{dt});
    for (std::size_t b = 0; b < columns; ++b) {
      refs[b].step(dt);
      for (std::size_t i = 0; i < kNodes; ++i) {
        ASSERT_NEAR(batch.temperature(b, ids[i]).value(), refs[b].temperature(i), 1e-9)
            << "column " << b << " node " << i << " diverged at step " << step;
      }
    }
  }
}

TEST_P(RcEquivalence, MinTimeConstantTracksResistanceChanges) {
  // The cached stability bound must follow set_resistance immediately (a
  // stale cache would show up as a wrong sub-step count, not a crash), in
  // the touched column only.
  const std::size_t columns = GetParam();
  const std::size_t last = columns - 1;
  RcNetwork net;
  const NodeId a = net.add_node("a", JoulesPerKelvin{10.0}, Celsius{30.0});
  const NodeId amb = net.add_fixed_node("amb", Celsius{25.0});
  const EdgeId e = net.add_edge(a, amb, KelvinPerWatt{1.0});
  RcBatch batch{net, columns};
  ReferenceRcNetwork ref;
  ref.add_node(10.0, 30.0);
  ref.add_fixed_node(25.0);
  ref.add_edge(0, 1, 1.0);
  EXPECT_NEAR(batch.min_time_constant(last).value(), 10.0, 1e-12);
  batch.step_all(Seconds{0.05});
  for (const double r : {0.1, 10.0}) {
    batch.set_resistance(last, e, KelvinPerWatt{r});
    ref.set_resistance(0, r);
    EXPECT_NEAR(batch.min_time_constant(last).value(), ref.min_time_constant(), 1e-12);
    EXPECT_NEAR(batch.min_time_constant(last).value(), 10.0 * r, 1e-12);
    EXPECT_NEAR(batch.min_time_constant(0).value(), columns == 1 ? 10.0 * r : 10.0, 1e-12);
    batch.step_all(Seconds{0.05});
  }
}

INSTANTIATE_TEST_SUITE_P(Columns, RcEquivalence, ::testing::Values(1u, 5u));

}  // namespace
}  // namespace thermctl::thermal
