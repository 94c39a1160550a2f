// CPU package thermal model: die → heatsink → ambient.
//
// A lumped RC chain (the standard compact package model, cf. Skadron et
// al., "Temperature-aware microarchitecture") tuned to reproduce the
// thermal envelope the paper reports for its AMD Athlon64 4000+ nodes: idle
// die temperatures just below the static fan curve's Tmin (38 °C),
// sustained full-power temperatures in the 50–70 °C band depending on fan
// speed, die time constants of a few seconds (the "sudden" behaviour of
// Fig. 2) and heatsink time constants of tens of seconds (the "gradual"
// behaviour):
//
//   C_die · dT_die/dt = P + (T_hs − T_die) · G_dhs
//   C_hs  · dT_hs/dt  = (T_die − T_hs) · G_dhs + (T_amb − T_hs) · G_conv(v)
//
// with the ambient (chassis inlet) a boundary and the convection G_conv set
// by the fan's airflow v. A fleet's packages share one PackageColumns, and
// a single package is a group of one.
//
// Integration is explicit Euler with automatic sub-stepping: each step is
// split so that every substep stays below an eighth of the row's smaller
// node time constant, which keeps the scheme stable for the stiff
// die/heatsink combination without an implicit solver. Each step plans
// each row's substep count afresh from its convection.
//
// Bit-exactness contract: a row's trajectory depends only on the calls
// made on that row — never on the group size, the row's neighbours, their
// substep plans or the step_range/settle_range bounds. tests/golden/ and
// tests/cluster/test_package_pin.cpp pin the bits; the group-of-one tests
// in tests/thermal pin row independence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/aligned.hpp"
#include "common/columns.hpp"
#include "common/units.hpp"
#include "thermal/convection.hpp"

namespace thermctl::thermal {

struct PackageParams {
  /// Die + integrated heat spreader lumped capacitance (die transient of a
  /// couple of seconds — the Fig. 2 "sudden" timescale).
  JoulesPerKelvin c_die{22.0};
  /// Heatsink mass capacitance (minute-scale drift — the "gradual"
  /// timescale).
  JoulesPerKelvin c_heatsink{150.0};
  /// Die-to-heatsink (TIM + spreader) resistance; sets the instantaneous die
  /// jump on a load step (~6 °C at cpu-burn power).
  KelvinPerWatt r_die_heatsink{0.10};
  /// Chassis/inlet air temperature seen by the heatsink.
  Celsius ambient{29.5};
  ConvectionParams convection{};
};

/// The packages' constants, once for every row, and per row: the die,
/// heatsink and ambient temperatures (°C), the die power (W), the
/// heatsink-to-ambient conductance (W/K), and the airflow memo — the
/// airflow last applied (CFM) and whether one has been applied yet. A fresh
/// row sits at the params' ambient with no power, still-air convection and
/// no airflow applied.
struct PackageColumns {
  PackageColumns(std::size_t n, const PackageParams& package_params);

  const PackageParams params;
  /// Die-to-heatsink conductance (W/K), 1 / r_die_heatsink.
  const double g_die_hs;
  const ConvectionModel convection;
  // The five state rows, each on a cache-line boundary for the substep's
  // unit-stride pass.
  AlignedVector<double> t_die;
  AlignedVector<double> t_hs;
  AlignedVector<double> t_amb;
  AlignedVector<double> p_die;
  AlignedVector<double> g_conv;
  std::vector<double> cfm;
  std::vector<std::uint8_t> set;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) {
    return std::tie(g.t_die, g.t_hs, g.t_amb, g.p_die, g.g_conv, g.cfm, g.set);
  }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }
  [[nodiscard]] std::size_t size() const { return t_die.size(); }

  /// The airflow kernel on one row's cells: records airflow `v` and
  /// re-evaluates the convection law into the row's conductance `g`, unless
  /// `v` is the airflow last applied (a settled fan rotor makes steady steps
  /// free). PackageModel::set_airflow and FleetSweep run it.
  static void apply_airflow(const ConvectionModel& convection, double v, double& applied,
                            std::uint8_t& applied_set, double& g) {
    if (applied_set != 0 && v == applied) {
      return;
    }
    applied = v;
    applied_set = 1;
    g = 1.0 / convection.resistance(Cfm{v}).value();
  }

  /// Row b's smaller node time constant (s): the die's C_die / G_dhs or the
  /// heatsink's C_hs / (G_dhs + G_conv).
  [[nodiscard]] double min_time_constant(std::size_t b) const;

  /// Advances rows [begin, end) by `dt`, sub-stepping per row for
  /// stability. Contiguous runs of rows that agree on the substep count
  /// (the homogeneous common case: all of them) advance in one pass per
  /// substep; disagreeing rows split the range, never the arithmetic.
  ///
  /// Thread-safety: concurrent step_range calls on DISJOINT row ranges are
  /// safe (all touched state is per-row) — this is what the sharded engine
  /// relies on.
  void step_range(Seconds dt, std::size_t begin, std::size_t end);

  /// Solves every row in [begin, end) for the steady state under its
  /// current power, convection and ambient, by marching it to quiescence:
  /// used to prime experiments that start from thermal equilibrium. Each row
  /// marches with its own large stable step, min_time_constant(b) / 2, until
  /// the largest move of one iteration drops below `tolerance_kelvin`, or
  /// `max_iterations` pass. The rows march together in cache-sized blocks:
  /// each iteration advances maximal runs of still-active rows that share a
  /// step in one pass, and a converged row leaves the active set.
  /// A run of adjacent rows that match bit for bit (the five state cells and
  /// the step) marches once: only its first row marches, and the others take
  /// its final temperatures, so a homogeneous fleet marches one row per
  /// distinct package. Every row ends bitwise where marching it alone ends.
  void settle_range(std::size_t begin, std::size_t end, int max_iterations = 200000,
                    double tolerance_kelvin = 1e-7);
};

/// One package: a view onto row `slot` of a PackageColumns.
class PackageModel {
 public:
  PackageModel(PackageColumns& cols, std::size_t slot);

  // One view per row: a copy would be a second writer of the same memo.
  // Callers build packages in place (prvalue construction elides).
  PackageModel(const PackageModel&) = delete;
  PackageModel& operator=(const PackageModel&) = delete;

  /// Power dissipated in the die for subsequent steps.
  void set_cpu_power(Watts p) { cols_.p_die[slot_] = p.value(); }
  /// Airflow delivered by the fan across the heatsink. The convection power
  /// law is only re-evaluated when the airflow actually moved — the fan's
  /// rotor settles between duty changes, making steady steps free.
  void set_airflow(Cfm v) {
    PackageColumns::apply_airflow(cols_.convection, v.value(), cols_.cfm[slot_],
                                  cols_.set[slot_], cols_.g_conv[slot_]);
  }
  /// Chassis inlet temperature (hot-spot / HVAC scenarios).
  void set_ambient(Celsius t) { cols_.t_amb[slot_] = t.value(); }

  /// Advances this package only. A fleet's packages are normally advanced
  /// en masse via PackageColumns::step_range by the engine; stepping one
  /// row here is the same arithmetic on one row.
  void step(Seconds dt) { cols_.step_range(dt, slot_, slot_ + 1); }

  /// Primes the model at equilibrium for the current power/airflow.
  void settle() { cols_.settle_range(slot_, slot_ + 1); }

  [[nodiscard]] Celsius die_temperature() const { return Celsius{cols_.t_die[slot_]}; }
  [[nodiscard]] Celsius heatsink_temperature() const { return Celsius{cols_.t_hs[slot_]}; }
  [[nodiscard]] Celsius ambient_temperature() const { return Celsius{cols_.t_amb[slot_]}; }
  [[nodiscard]] Cfm airflow() const { return Cfm{cols_.cfm[slot_]}; }
  [[nodiscard]] Watts cpu_power() const { return Watts{cols_.p_die[slot_]}; }

  /// Steady-state die temperature for a hypothetical (power, airflow) point
  /// at the current ambient — the analytic solution of the two-resistor
  /// chain. Useful for calibration and for the model-validation tests.
  [[nodiscard]] Celsius steady_state_die(Watts p, Cfm v) const;

 private:
  PackageColumns& cols_;
  std::size_t slot_;
};

}  // namespace thermctl::thermal
