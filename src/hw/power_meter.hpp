// System power meter model (Watts up? Pro ES stand-in).
//
// Table 1's "Ave Power" and power-delay-product columns come from a wall
// meter sampling whole-system draw at ~1 Hz. The model sums component powers
// through a PSU-efficiency curve, and FleetSweep integrates that draw into
// the meter's energy every physics step, so averages computed from it have
// the same semantics as the paper's instrument.
#pragma once

#include <cmath>
#include <cstddef>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/units.hpp"

namespace thermctl::hw {

struct PowerMeterParams {
  /// Constant platform draw (board, DRAM, disk, NIC) behind the PSU.
  /// Calibrated so a loaded node meters ~95-100 W AC (Table 1's range).
  Watts base_load{35.0};
  /// PSU efficiency at the loads of interest (AC draw = DC load / eff).
  double psu_efficiency = 0.85;
  /// Meter display resolution.
  double resolution_watts = 0.1;

  // The meter's arithmetic on raw watts: the only copy. PowerMeter's display
  // and FleetSweep's integral and wall_power_w all run it.

  /// AC-side draw for a DC component sum behind the PSU.
  [[nodiscard]] double ac_w(double dc_component_w) const {
    return (base_load.value() + dc_component_w) / psu_efficiency;
  }
  /// An AC draw as the display shows it, rounded to the resolution.
  [[nodiscard]] double display_w(double ac_draw_w) const {
    return std::round(ac_draw_w / resolution_watts) * resolution_watts;
  }
};

/// The meters' constants, once for every row, and their integrals, one row
/// per meter: energy (J) and the elapsed time it covers (s). FleetSweep
/// advances them every physics step. A fresh row is zero.
struct MeterColumns {
  MeterColumns(std::size_t n, const PowerMeterParams& meter_params);

  const PowerMeterParams params;
  std::vector<double> energy_j;
  std::vector<double> elapsed_s;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) { return std::tie(g.energy_j, g.elapsed_s); }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }
};

/// One wall meter: a view onto row `slot` of a MeterColumns.
class PowerMeter {
 public:
  PowerMeter(MeterColumns& cols, std::size_t slot);

  /// AC-side power as the meter would display it for a DC component sum
  /// (CPU + fan + anything else the node draws behind the PSU).
  [[nodiscard]] Watts read_with(Watts dc_component) const {
    return Watts{params().display_w(params().ac_w(dc_component.value()))};
  }

  /// Energy accumulated so far (the meter's kWh counter, in joules).
  [[nodiscard]] Joules energy() const { return Joules{cols_.energy_j[slot_]}; }

  /// Average power over the integration window so far.
  [[nodiscard]] Watts average_power() const;

  [[nodiscard]] const PowerMeterParams& params() const { return cols_.params; }

 private:
  MeterColumns& cols_;
  std::size_t slot_;
};

}  // namespace thermctl::hw
