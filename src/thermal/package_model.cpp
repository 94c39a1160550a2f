#include "thermal/package_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace thermctl::thermal {

PackageColumns::PackageColumns(std::size_t n, const PackageParams& package_params)
    : params(package_params),
      g_die_hs(1.0 / package_params.r_die_heatsink.value()),
      convection(package_params.convection),
      // Every row starts at ambient in still air, with no power injected;
      // callers that want a hot start settle after setting power/airflow.
      t_die(n, package_params.ambient.value()),
      t_hs(n, package_params.ambient.value()),
      t_amb(n, package_params.ambient.value()),
      p_die(n, 0.0),
      g_conv(n, 1.0 / convection.still_air_resistance().value()),
      cfm(n, 0.0),
      set(n, 0) {
  THERMCTL_ASSERT(n > 0, "package group needs at least one row");
  THERMCTL_ASSERT(params.c_die.value() > 0.0 && params.c_heatsink.value() > 0.0,
                  "package nodes need positive capacitance");
  THERMCTL_ASSERT(params.r_die_heatsink.value() > 0.0, "thermal resistance must be positive");
}

double PackageColumns::min_time_constant(std::size_t b) const {
  return std::min(params.c_die.value() / g_die_hs,
                  params.c_heatsink.value() / (g_die_hs + g_conv[b]));
}

namespace {

/// Substeps of one step of `dt` for a row whose smaller time constant is
/// `min_tau`. Explicit Euler is stable for h < 2*tau; keep sub-steps below
/// tau/8 for accuracy (sub-degree error per time constant) on top of the
/// stability margin.
int substeps(double dt, double min_tau) {
  const double max_sub = std::max(1e-6, min_tau / 8.0);
  return std::max(1, static_cast<int>(std::ceil(dt / max_sub)));
}

/// One Jacobi substep of length `h` for rows [begin, end): both fluxes from
/// the pre-step temperatures, each node's edges in the order the chain adds
/// them (die–heatsink, then heatsink–ambient), then T += h·(P + flux)/C.
/// Each flux sum starts from +0.0. The heatsink carries no power: adding a
/// zero power to its flux would leave it bit for bit unchanged, because a
/// sum that starts from +0.0 is never -0.0.
///
/// The rows never overlap, and saying so with restrict-qualified parameters
/// lets a vectorizer emit one SIMD loop without runtime overlap tests (GCC
/// 12 does at -O3 or -fvect-cost-model=cheap; the -O2 default cost model
/// keeps it scalar); noinline keeps the restrict contract from being
/// dropped by inlining into the caller.
[[gnu::noinline]] void euler_substep(double* __restrict t_die, double* __restrict t_hs,
                                     const double* __restrict t_amb,
                                     const double* __restrict p_die,
                                     const double* __restrict g_conv, double g_die_hs,
                                     double c_die, double c_hs, double h, std::size_t begin,
                                     std::size_t end) {
  for (std::size_t b = begin; b < end; ++b) {
    const double td = t_die[b];
    const double th = t_hs[b];
    const double f_die = 0.0 + (th - td) * g_die_hs;
    const double f_hs = 0.0 + (td - th) * g_die_hs + (t_amb[b] - th) * g_conv[b];
    t_die[b] = td + h * (p_die[b] + f_die) / c_die;
    t_hs[b] = th + h * f_hs / c_hs;
  }
}

}  // namespace

void PackageColumns::step_range(Seconds dt, std::size_t begin, std::size_t end) {
  THERMCTL_ASSERT(dt.value() > 0.0, "step duration must be positive");
  THERMCTL_ASSERT(begin <= end && end <= size(), "row range out of bounds");
  // Advance maximal runs of rows that agree on the substep count in one
  // pass per substep; a heterogeneous plan splits the range, not the
  // arithmetic, so every row's trajectory is independent of its
  // neighbours' plans.
  auto plan = [&](std::size_t b) { return substeps(dt.value(), min_time_constant(b)); };
  for (std::size_t i = begin; i < end;) {
    const int subs = plan(i);
    std::size_t j = i + 1;
    while (j < end && plan(j) == subs) {
      ++j;
    }
    const double h = dt.value() / subs;
    for (int s = 0; s < subs; ++s) {
      euler_substep(t_die.data(), t_hs.data(), t_amb.data(), p_die.data(), g_conv.data(),
                    g_die_hs, params.c_die.value(), params.c_heatsink.value(), h, i, j);
    }
    i = j;
  }
}

void PackageColumns::settle_range(std::size_t begin, std::size_t end, int max_iterations,
                                  double tolerance_kelvin) {
  THERMCTL_ASSERT(begin <= end && end <= size(), "row range out of bounds");
  // Rows per block: the block's state and before-copy rows stay
  // cache-resident across its whole march.
  const std::size_t block = std::min<std::size_t>(256, end - begin);
  std::vector<double> step(end - begin);
  for (std::size_t b = begin; b < end; ++b) {
    step[b - begin] = min_time_constant(b) / 2.0;
  }
  // A row that matches the first row of its run bit for bit, in every state
  // cell and in the step, would march the same bits: it is a duplicate,
  // marked by a step no row marches with, and takes the first row's end
  // state after the march.
  constexpr double kDuplicate = -1.0;
  auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  auto same_inputs = [&](std::size_t a, std::size_t b) {
    return same_bits(step[a - begin], step[b - begin]) && same_bits(t_die[a], t_die[b]) &&
           same_bits(t_hs[a], t_hs[b]) && same_bits(t_amb[a], t_amb[b]) &&
           same_bits(p_die[a], p_die[b]) && same_bits(g_conv[a], g_conv[b]);
  };
  for (std::size_t rep = begin, b = begin + 1; b < end; ++b) {
    if (same_inputs(rep, b)) {
      step[b - begin] = kDuplicate;
    } else {
      rep = b;
    }
  }
  // Before-step temperatures of the block: the die row, then the heatsink's.
  std::vector<double> before(2 * block);
  std::vector<double> delta(block);
  std::vector<std::size_t> active;
  active.reserve(block);
  for (std::size_t lo = begin; lo < end; lo += block) {
    const std::size_t hi = std::min(lo + block, end);
    active.clear();
    for (std::size_t b = lo; b < hi; ++b) {
      if (step[b - begin] != kDuplicate) {
        active.push_back(b);
      }
    }
    for (int it = 0; it < max_iterations && !active.empty(); ++it) {
      for (std::size_t r = 0; r < active.size();) {
        // A run: consecutive active rows with one step length.
        const std::size_t i = active[r];
        const double h = step[i - begin];
        std::size_t j = i + 1;
        for (++r; r < active.size() && active[r] == j && step[j - begin] == h; ++r) {
          ++j;
        }
        std::copy(t_die.begin() + i, t_die.begin() + j, before.begin() + (i - lo));
        std::copy(t_hs.begin() + i, t_hs.begin() + j, before.begin() + (block + i - lo));
        euler_substep(t_die.data(), t_hs.data(), t_amb.data(), p_die.data(), g_conv.data(),
                      g_die_hs, params.c_die.value(), params.c_heatsink.value(), h, i, j);
        for (std::size_t b = i; b < j; ++b) {
          const double die_move = std::abs(t_die[b] - before[b - lo]);
          const double hs_move = std::abs(t_hs[b] - before[block + b - lo]);
          // The running max starts from 0.0, so a NaN move counts as no
          // move rather than keeping the row marching to the cap.
          delta[b - lo] = std::max(std::max(0.0, die_move), hs_move);
        }
      }
      std::erase_if(active, [&](std::size_t b) { return delta[b - lo] < tolerance_kelvin; });
    }
  }
  // Each run's duplicates take its first row's end state; the march writes
  // only the die and heatsink temperatures.
  for (std::size_t rep = begin; rep < end;) {
    std::size_t run_end = rep + 1;
    while (run_end < end && step[run_end - begin] == kDuplicate) {
      ++run_end;
    }
    std::fill(t_die.begin() + rep + 1, t_die.begin() + run_end, t_die[rep]);
    std::fill(t_hs.begin() + rep + 1, t_hs.begin() + run_end, t_hs[rep]);
    rep = run_end;
  }
}

PackageModel::PackageModel(PackageColumns& cols, std::size_t slot) : cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.size(), "column slot out of range");
}

Celsius PackageModel::steady_state_die(Watts p, Cfm v) const {
  // In steady state all die power flows through both resistances in series.
  const double r_total =
      cols_.params.r_die_heatsink.value() + cols_.convection.resistance(v).value();
  return Celsius{cols_.t_amb[slot_] + p.value() * r_total};
}

}  // namespace thermctl::thermal
