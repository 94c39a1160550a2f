// Forced-convection heat transfer model.
//
// The fan's contribution to cooling is modelled as an airflow-dependent
// heatsink-to-ambient resistance. For forced convection over a finned sink
// the convective conductance scales roughly with airflow^0.8 (classic
// Dittus-Boelter turbulence exponent), plus a natural-convection floor so the
// model stays sane at zero airflow:
//
//   G(v) = g_natural + g_forced * v^0.8        [W/K, v in CFM]
//   R(v) = r_conduction + 1 / G(v)             [K/W]
//
// r_conduction captures the fin/base spreading resistance that no amount of
// airflow removes; it is what makes the 50% vs 75% max-duty trajectories in
// the paper's Fig. 7 nearly indistinguishable while 25% vs 100% differ by
// several degrees (diminishing returns of airflow).
#pragma once

#include <cmath>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace thermctl::thermal {

struct ConvectionParams {
  /// Natural-convection conductance at zero airflow (W/K). Calibrated so a
  /// stalled fan sends a loaded CPU toward PROCHOT territory but an idle one
  /// survives — the fan-failure scenarios of §1.
  double g_natural = 0.55;
  /// Forced-convection coefficient (W/K per CFM^exponent).
  double g_forced = 0.5;
  /// Airflow exponent. Sub-linear (0.6 effective over this sink's range) so
  /// conductance saturates: the 25→50% duty gain dwarfs 75→100% (Fig. 7).
  double exponent = 0.6;
  /// Series conduction/spreading resistance (K/W) independent of airflow.
  KelvinPerWatt r_conduction{0.02};
};

class ConvectionModel {
 public:
  ConvectionModel() = default;
  explicit ConvectionModel(const ConvectionParams& p);

  /// Heatsink-to-ambient resistance at airflow `v`.
  [[nodiscard]] KelvinPerWatt resistance(Cfm v) const {
    THERMCTL_ASSERT(v.value() >= 0.0, "negative airflow");
    const double g = params_.g_natural + params_.g_forced * std::pow(v.value(), params_.exponent);
    return KelvinPerWatt{params_.r_conduction.value() + 1.0 / g};
  }

  /// Resistance with the fan stopped (natural convection only).
  [[nodiscard]] KelvinPerWatt still_air_resistance() const { return resistance(Cfm{0.0}); }

  [[nodiscard]] const ConvectionParams& params() const { return params_; }

 private:
  ConvectionParams params_{};
};

}  // namespace thermctl::thermal
