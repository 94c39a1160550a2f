// Equivalence of the package solver against the seed implementation.
//
// PackageColumns fuses the die–heatsink–ambient chain into one per-row
// kernel over structure-of-arrays rows and plans each step from the row's
// convection; this test pins it against a direct re-implementation of the
// original edge-list solver (alloc-per-step, recompute-everything) and
// requires trajectories to agree to 1e-9 degC — the solver is a
// layout change, not a numerical one. Exercised with fan-like per-step
// convection updates, as a group of one and as a group of five whose rows
// receive different inputs, every row checked against its own reference.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "thermal/package_model.hpp"

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
  PackageColumns cols{columns, p};
  std::fill(cols.t_die.begin(), cols.t_die.end(), 40.0);
  std::fill(cols.t_hs.begin(), cols.t_hs.end(), 35.0);

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
      cols.p_die[b] = power;
      cols.g_conv[b] = 1.0 / r_conv;
      refs[b].set_power(rdie, power);
      refs[b].set_resistance(rconv, r_conv);
    }

    cols.step_range(Seconds{dt}, 0, columns);
    for (std::size_t b = 0; b < columns; ++b) {
      refs[b].step(dt);
      ASSERT_NEAR(cols.t_die[b], refs[b].temperature(rdie), 1e-9)
          << "column " << b << " step " << step;
      ASSERT_NEAR(cols.t_hs[b], refs[b].temperature(rhs), 1e-9)
          << "column " << b << " step " << step;
    }
  }
}

TEST_P(RcEquivalence, MinTimeConstantMatchesReference) {
  // The substep plan's time constant follows every convection change, in
  // the changed row only.
  const std::size_t columns = GetParam();
  const std::size_t last = columns - 1;
  const PackageParams p;
  PackageColumns cols{columns, p};
  ReferenceRcNetwork ref;
  const std::size_t die = ref.add_node(p.c_die.value(), p.ambient.value());
  const std::size_t hs = ref.add_node(p.c_heatsink.value(), p.ambient.value());
  const std::size_t amb = ref.add_fixed_node(p.ambient.value());
  ref.add_edge(die, hs, p.r_die_heatsink.value());
  const std::size_t conv = ref.add_edge(hs, amb, 1.0 / cols.g_conv[0]);
  const double still_air = cols.min_time_constant(0);
  EXPECT_NEAR(still_air, ref.min_time_constant(), 1e-12);
  for (const double r : {0.5, 0.02, 0.004}) {
    cols.g_conv[last] = 1.0 / r;
    ref.set_resistance(conv, r);
    EXPECT_NEAR(cols.min_time_constant(last), ref.min_time_constant(), 1e-12);
    EXPECT_NEAR(cols.min_time_constant(0), columns == 1 ? ref.min_time_constant() : still_air,
                1e-12);
    cols.step_range(Seconds{0.05}, 0, columns);
  }
}

INSTANTIATE_TEST_SUITE_P(Columns, RcEquivalence, ::testing::Values(1u, 5u));

}  // namespace
}  // namespace thermctl::thermal
