// The Linux `step_wise` thermal governor — the present-day baseline.
//
// Implements the kernel governor's documented behaviour over our thermal-
// zone surface: for each passive trip point, compare the zone temperature
// and its trend against the trip;
//
//   temp >= trip and rising   → step every bound cooling device up by one
//   temp >= trip and stable   → hold
//   temp >= trip and cooling  → step down by one, but only after
//                               `cooling_consistency` consecutive falling
//                               samples (step-down hysteresis)
//   temp <  trip and falling  → step down by one (not below 0)
//
// Critical trips are reported (a real kernel shuts down; we leave the
// response to the platform's THERMTRIP model).
//
// Contrast with the paper's controller: step_wise reacts only to the sign
// of the trend once *past* the trip — no prediction, no policy parameter,
// no per-device proportionality. The ablation bench quantifies what Eq. (1)
// + the two-level window buy over it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "sysfs/thermal_zone.hpp"

namespace thermctl::core {

struct StepWiseConfig {
  /// Step-down hysteresis while still above the passive trip: the zone must
  /// have been falling for this many consecutive samples before one cooling
  /// step is released (a single cool sample never unwinds the response).
  int cooling_consistency = 3;
};

class StepWiseGovernor {
 public:
  StepWiseGovernor(sysfs::ThermalZone& zone, StepWiseConfig config = {});

  /// Governor tick (call at the sampling rate).
  void on_sample(SimTime now);

  [[nodiscard]] std::uint64_t steps_up() const { return steps_up_; }
  [[nodiscard]] std::uint64_t steps_down() const { return steps_down_; }
  [[nodiscard]] int critical_crossings() const { return critical_; }

 private:
  sysfs::ThermalZone& zone_;
  StepWiseConfig config_;
  double last_temp_ = 0.0;
  bool primed_ = false;  // last_temp_ holds a real sample
  int falling_streak_ = 0;
  bool critical_latched_ = false;
  std::uint64_t steps_up_ = 0;
  std::uint64_t steps_down_ = 0;
  int critical_ = 0;
};

}  // namespace thermctl::core
