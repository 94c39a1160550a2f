// PWM-controlled cooling fan model.
//
// Reproduces the out-of-band actuator of the paper's platform: a CPU fan with
// a 4300 RPM ceiling whose speed is commanded through a PWM duty cycle
// (Fig. 1). The model captures the properties the experiments depend on:
//
//  * PWM→RPM: linear above a stall threshold (a real fan does not spin below
//    a few percent duty).
//  * Rotor inertia: RPM follows the command with a first-order lag (stepped
//    by FleetSweep), so fan response is fast (~1 s) but not instantaneous.
//  * Airflow ∝ RPM (fan laws), feeding the convection model.
//  * Electrical power ∝ RPM^3 (fan affinity laws) — the cost side of
//    aggressive fan policies in Figs. 5–7.
//  * Failure injection: a stuck rotor for the emergency scenarios.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/units.hpp"

namespace thermctl::hw {

struct FanParams {
  Rpm max_rpm{4300.0};
  /// Duty below which the rotor stalls (no rotation).
  DutyCycle stall_duty{4.0};
  /// Airflow at max RPM.
  Cfm max_airflow{32.0};
  /// Electrical power at max RPM (affinity-law cubic from here).
  Watts max_power{5.5};
  /// Standby electronics draw even when stalled.
  Watts idle_power{0.2};
  /// Rotor spin-up/down time constant.
  Seconds rotor_tau{0.8};

  // The fan's per-step formulas on raw values: the only copy of this
  // arithmetic. FanDevice runs them on its row and FleetSweep on every row
  // of a pass, through a local copy of these (all-scalar) params.

  /// Steady-state RPM for a duty command (the rotor lag's fixed point):
  /// linear from the stall point up to max RPM at 100% duty. Real fans keep
  /// spinning slowly right at the stall threshold; the curve has a floor of
  /// 15% RPM there for continuity with datasheet minimum-speed specs.
  [[nodiscard]] double target_rpm(double duty_pct) const {
    if (duty_pct < stall_duty.percent()) {
      return 0.0;
    }
    const double span = 100.0 - stall_duty.percent();
    const double frac = (duty_pct - stall_duty.percent()) / span;
    constexpr double kMinFrac = 0.15;
    return max_rpm.value() * (kMinFrac + (1.0 - kMinFrac) * frac);
  }
  /// Airflow ∝ RPM (fan laws).
  [[nodiscard]] double airflow_cfm(double rpm) const {
    return max_airflow.value() * rpm / max_rpm.value();
  }
  /// Electrical power: standby draw plus the affinity-law cubic in RPM.
  [[nodiscard]] double power_w(double rpm) const {
    const double frac = rpm / max_rpm.value();
    return idle_power.value() + max_power.value() * frac * frac * frac;
  }
};

/// The fans' constants, once for every row, and their rotor state, one row
/// per fan: commanded duty (%), rotor RPM and the stuck-rotor flag.
/// FleetSweep steps the rotor lag over these columns. A fresh row is a
/// stopped, healthy fan at 0 % duty.
struct FanColumns {
  FanColumns(std::size_t n, const FanParams& fan_params);

  const FanParams params;
  std::vector<double> duty_pct;
  std::vector<double> rpm;
  std::vector<std::uint8_t> stuck;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) { return std::tie(g.duty_pct, g.rpm, g.stuck); }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }
};

/// One fan: a view onto row `slot` of a FanColumns.
class FanDevice {
 public:
  FanDevice(FanColumns& cols, std::size_t slot);

  // One device per row: a copy would be a second writer of the same state.
  FanDevice(const FanDevice&) = delete;
  FanDevice& operator=(const FanDevice&) = delete;

  /// Commands a PWM duty cycle; takes effect through the rotor lag.
  void set_duty(DutyCycle duty) { cols_.duty_pct[slot_] = duty.percent(); }
  [[nodiscard]] DutyCycle duty() const { return DutyCycle{cols_.duty_pct[slot_]}; }

  [[nodiscard]] Rpm rpm() const { return Rpm{cols_.rpm[slot_]}; }
  [[nodiscard]] Cfm airflow() const { return Cfm{params().airflow_cfm(cols_.rpm[slot_])}; }
  [[nodiscard]] Watts power() const { return Watts{params().power_w(cols_.rpm[slot_])}; }

  /// FanParams::target_rpm for `duty`.
  [[nodiscard]] Rpm target_rpm(DutyCycle duty) const {
    return Rpm{params().target_rpm(duty.percent())};
  }

  /// Snaps the rotor to its steady state for the current duty (experiment
  /// priming).
  void settle() { cols_.rpm[slot_] = target_rpm(duty()).value(); }

  /// Injects a stuck-rotor fault: the fan ignores commands and coasts to a
  /// halt. `clear_fault` restores normal operation.
  void inject_stuck_fault() { cols_.stuck[slot_] = 1; }
  void clear_fault() { cols_.stuck[slot_] = 0; }
  [[nodiscard]] bool faulted() const { return cols_.stuck[slot_] != 0; }

  [[nodiscard]] const FanParams& params() const { return cols_.params; }

 private:
  FanColumns& cols_;
  std::size_t slot_;
};

}  // namespace thermctl::hw
