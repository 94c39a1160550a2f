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
//
// Everything past the feed-forward is the dynamic fan technique's:
// PredictiveFanTechnique is a FanTechnique whose act() augments the round
// first, and the controller is that technique behind its own window and
// sensor gate, like every other standalone controller — so
// `base.fault_aware` fails safe to maximum cooling on a dead sensor.
#pragma once

#include <cstdint>
#include <optional>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/fan_policy.hpp"
#include "core/two_level_window.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/powercap.hpp"

namespace thermctl::core {

struct PredictiveFanConfig {
  FanControlConfig base{};
  /// Ignore power deltas below this (meter noise floor, W).
  double power_deadband_w = 3.0;
};

/// The dynamic fan technique with the RAPL feed-forward added to each
/// round's Δt_L1 before FanTechnique::act sees it.
///
/// begin, on_verdict and act hide FanTechnique's non-virtual methods of the
/// same names. Drive the technique only through
/// Windowed<PredictiveFanTechnique>, which calls them by name: a caller
/// holding it as a FanTechnique& would run the base methods and skip the
/// RAPL baseline and the feed-forward. Reading its state through a
/// FanTechnique& is fine.
class PredictiveFanTechnique : public FanTechnique {
 public:
  PredictiveFanTechnique(sysfs::HwmonDevice& hwmon, sysfs::RaplDomain& rapl,
                         const PredictiveFanConfig& config);

  /// FanTechnique::begin; the first tick also takes the RAPL baseline.
  void begin(SimTime now);

  /// FanTechnique::on_verdict; entering or leaving fail-safe also drops
  /// the power history and re-takes the RAPL baseline, so no round after a
  /// recovery averages power over the outage or compares with the power
  /// seen before it.
  void on_verdict(SimTime now, SensorVerdict verdict, TwoLevelWindow& window);

  /// Acts on the round with its Δt_L1 augmented by the feed-forward.
  void act(SimTime now, const WindowRound& round);

  /// Retargets attributable to the power feed-forward (counter) term.
  [[nodiscard]] std::uint64_t feedforward_count() const { return feedforward_; }

 private:
  /// The feed-forward Δt for the round closing at `now`, from the RAPL
  /// energy spent since the last one.
  double feedforward(SimTime now);
  /// Forgets the power history; the next round starts it from `now`.
  void rebaseline(SimTime now);

  sysfs::RaplDomain& rapl_;
  PredictiveFanConfig config_;
  std::optional<SimTime> last_round_time_;  // set on the first tick
  std::uint64_t last_energy_uj_ = 0;
  double last_round_power_w_ = -1.0;
  std::uint64_t feedforward_ = 0;
};

/// The predictive fan controller: the technique behind its own window and
/// gate.
using PredictiveFanController = Windowed<PredictiveFanTechnique>;

}  // namespace thermctl::core
