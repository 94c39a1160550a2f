// Counter-augmented predictive fan control — the paper's §5 future-work
// item made concrete: "we are considering integration of hardware counter
// and data in our techniques to improve our prediction mechanisms."
//
// The two-level window predicts from temperature *history*, so it cannot
// react until heat has already moved the die — one to two rounds of lag
// behind a load step (die RC ≈ seconds). Package power, read from the RAPL
// energy counter, moves *instantly* when load changes. This controller
// augments the window's Δt with a power-derived feed-forward term:
//
//   Δt' = Δt_window + gain · ΔP_round · R_die
//
// where ΔP_round is the round-over-round change in average package power
// and R_die converts watts to the eventual steady-state degrees they will
// produce. A pure power step thus retargets the fan on the *same* round it
// happens, instead of after the die warms.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/fan_policy.hpp"
#include "core/mode_selector.hpp"
#include "core/two_level_window.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/powercap.hpp"

namespace thermctl::core {

struct PredictiveFanConfig {
  FanControlConfig base{};
  /// Weight of the power feed-forward term (1.0 = trust the model fully).
  double power_gain = 0.8;
  /// Thermal resistance estimate converting ΔP to eventual Δt (K/W). The
  /// die-to-ambient total of the platform; a calibration input, as it would
  /// be on a real deployment.
  double r_thermal = 0.45;
  /// Ignore power deltas below this (meter noise floor, W).
  double power_deadband_w = 3.0;
  /// Reject a round's power sample entirely above this (W): wrap-corrected
  /// RAPL deltas can still be garbage after a counter reset or torn read,
  /// and a bogus spike must not reach the feed-forward term.
  double max_power_w = 400.0;
};

class PredictiveFanController {
 public:
  PredictiveFanController(sysfs::HwmonDevice& hwmon, sysfs::RaplDomain& rapl,
                          PredictiveFanConfig config);

  void on_sample(SimTime now);

  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] DutyCycle current_duty() const { return DutyCycle{family_.array.mode(index_)}; }
  [[nodiscard]] const std::vector<FanEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t retarget_count() const { return retargets_; }
  /// Retargets attributable to the power feed-forward (counter) term.
  [[nodiscard]] std::uint64_t feedforward_count() const { return feedforward_; }

 private:
  sysfs::HwmonDevice& hwmon_;
  sysfs::RaplDomain& rapl_;
  PredictiveFanConfig config_;
  FanFamily family_;  // config.base's selector and Eq. (1) array
  TwoLevelWindow window_;
  std::size_t index_ = 0;
  bool initialized_ = false;
  std::uint64_t last_energy_uj_ = 0;
  SimTime last_round_time_{};
  double last_round_power_w_ = -1.0;
  std::vector<FanEvent> events_;
  std::uint64_t retargets_ = 0;
  std::uint64_t feedforward_ = 0;
};

}  // namespace thermctl::core
