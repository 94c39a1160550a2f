// CPU package thermal model: die → heatsink → ambient.
//
// A three-node RC instantiation tuned to reproduce the thermal envelope the
// paper reports for its AMD Athlon64 4000+ nodes: idle die temperatures just
// below the static fan curve's Tmin (38 °C), sustained full-power temperatures
// in the 50–70 °C band depending on fan speed, die time constants of a few
// seconds (the "sudden" behaviour of Fig. 2) and heatsink time constants of
// tens of seconds (the "gradual" behaviour).
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/units.hpp"
#include "thermal/convection.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

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

/// Handles into the die—heatsink—ambient wiring that wire_network builds.
struct PackageWiring {
  NodeId die{};
  NodeId heatsink{};
  NodeId ambient{};
  EdgeId die_hs{};
  EdgeId hs_amb{};
};

/// The packages' convection law, once for every row, and their early-out
/// memo, one row per package: the airflow last applied (CFM) and whether
/// one has been applied yet. A fresh row has applied none.
struct AirflowColumns {
  AirflowColumns(std::size_t n, const ConvectionParams& convection_params)
      : convection(convection_params), cfm(n, 0.0), set(n, 0) {}

  const ConvectionModel convection;
  std::vector<double> cfm;
  std::vector<std::uint8_t> set;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) { return std::tie(g.cfm, g.set); }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }

  /// The early-out on one row's cells: records `v` and returns true unless
  /// it is the airflow last applied, in which case the convection law need
  /// not be re-evaluated. PackageModel::set_airflow and FleetSweep run it.
  [[nodiscard]] static bool moved(double v, double& applied, std::uint8_t& applied_set) {
    if (applied_set != 0 && v == applied) {
      return false;
    }
    applied = v;
    applied_set = 1;
    return true;
  }
};

/// The die—heatsink—ambient RC model with fan-speed-dependent convection on
/// the heatsink-ambient edge.
///
/// A PackageModel is a *view* onto one instance column of an RcBatch built
/// from wire_network's topology, and onto the same row of an
/// AirflowColumns: a fleet's nodes share one batch, and a single package is
/// a batch of one.
class PackageModel {
 public:
  /// View onto instance `slot` of `batch` and of `airflow`; `batch` must
  /// have been built from the network that `wire_network(params, ...)`
  /// returned `wiring` for, and `airflow` from `params.convection`.
  PackageModel(const PackageParams& params, const PackageWiring& wiring, RcBatch& batch,
               AirflowColumns& airflow, std::size_t slot);

  // One view per column: a copy would be a second writer of the same memo.
  // Callers build packages in place (prvalue construction elides).
  PackageModel(const PackageModel&) = delete;
  PackageModel& operator=(const PackageModel&) = delete;

  /// Builds the three-node chain into `net` (initial temperatures at
  /// ambient, still-air convection) and returns the handles. Every batch a
  /// PackageModel views is built from a network wired here.
  static PackageWiring wire_network(const PackageParams& params, RcNetwork& net);

  /// Power dissipated in the die for subsequent steps.
  void set_cpu_power(Watts p) {
    *die_power_cell_ = p.value();  // == batch set_power: a plain cell write
  }
  /// Airflow delivered by the fan across the heatsink. The convection power
  /// law is only re-evaluated when the airflow actually moved — the fan's
  /// rotor settles between duty changes, making steady steps free.
  void set_airflow(Cfm v) {
    if (AirflowColumns::moved(v.value(), airflow_.cfm[slot_], airflow_.set[slot_])) {
      batch_.set_resistance(slot_, wiring_.hs_amb, airflow_.convection.resistance(v));
    }
  }
  /// Chassis inlet temperature (hot-spot / HVAC scenarios).
  void set_ambient(Celsius t);

  /// Advances this package only. A fleet's packages are normally advanced
  /// en masse via RcBatch::step_range by the engine; stepping one instance
  /// here is the same arithmetic on one column.
  void step(Seconds dt) { batch_.step_one(slot_, dt); }

  /// Primes the model at equilibrium for the current power/airflow.
  void settle() { batch_.settle(slot_); }

  [[nodiscard]] Celsius die_temperature() const {
    // Hottest read in the simulator (several per node per step): a cell
    // pointer bound at construction.
    return Celsius{*die_temp_cell_};
  }
  [[nodiscard]] Celsius heatsink_temperature() const { return temperature(wiring_.heatsink); }
  [[nodiscard]] Celsius ambient_temperature() const { return temperature(wiring_.ambient); }
  [[nodiscard]] Cfm airflow() const { return Cfm{airflow_.cfm[slot_]}; }
  [[nodiscard]] Watts cpu_power() const { return Watts{*die_power_cell_}; }

  /// Steady-state die temperature for a hypothetical (power, airflow) point —
  /// the analytic solution of the two-resistor chain. Useful for calibration
  /// and for the model-validation tests.
  [[nodiscard]] Celsius steady_state_die(Watts p, Cfm v) const;

  [[nodiscard]] const PackageParams& params() const { return params_; }

 private:
  [[nodiscard]] Celsius temperature(NodeId n) const { return batch_.temperature(slot_, n); }

  PackageParams params_;
  RcBatch& batch_;
  AirflowColumns& airflow_;
  std::size_t slot_;
  PackageWiring wiring_;
  // Cells for this view's fixed (slot, die) coordinates, validated once in
  // the constructor (see RcBatch::power_cell).
  double* die_power_cell_;
  const double* die_temp_cell_;
};

}  // namespace thermctl::thermal
