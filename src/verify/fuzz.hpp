// Deterministic controller fuzzing — adversarial sensor streams against
// every controller in the stack.
//
// The experiment harness only ever shows controllers physically plausible
// temperatures (the RC network is smooth by construction), so the fuzzer
// exists to drive them with everything the RC network will never produce:
// spikes, steep ramps, stuck-at values, NaN bursts, step discontinuities,
// and RAPL counters parked just below their wrap boundary. Each fuzz run is
// seeded and fully replayable — a violation report carries the seed, and
// re-running with that seed reproduces the exact stream.
//
// Checked properties per controller:
//  * UnifiedController — fan/DVFS indices stay inside their arrays, duty
//    stays inside [min_duty, max_duty], both arrays survive random
//    set_policy re-fills, DVFS down-triggers honour the fan-preferred
//    coordination invariant; odd seeds run fault-aware under bus-fault
//    episodes, where the chip holds the most effective duty from the tick
//    after fail-safe entry whenever the bus is healthy, and tDVFS never
//    retargets while it holds;
//  * PredictiveFanController — a RAPL wrap under flat temperature and
//    constant load must not retarget the fan (the wrap-corrected power
//    delta is ~zero); duty bounds as above; odd seeds run fault-aware
//    under bus-fault episodes with the same fail-safe duty check;
//  * PidFanController — duty clamps to its bounds under any input, the
//    integrator stays finite, and a reset() is always followed by an
//    actuation on the next tick (the hardware-state-unknown contract);
//  * StepWiseGovernor — bound cooling devices never leave [0, max_state],
//    NaN zone temperatures are treated as "no trend" rather than stepping;
//  * ModeSelector / ThermalControlArray — decisions on random (including
//    non-finite) window rounds stay in range with legal level-2
//    attribution; random fills keep every Eq. (1) structural property.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "verify/invariants.hpp"

namespace thermctl::verify {

/// Seeded generator of adversarial per-sample temperatures: segments of
/// 5–60 samples, each one of {flat, ramp, spike train, stuck-at, NaN burst,
/// step}. With `allow_nan` false (for paths that convert readings through
/// integer sysfs attributes), NaN-burst segments become extreme-magnitude
/// spike segments instead.
class AdversarialStream {
 public:
  AdversarialStream(std::uint64_t seed, bool allow_nan);

  /// Next sample (°C). Finite values stay within ±5·10⁵ °C.
  double next();

 private:
  void start_segment();

  Rng rng_;
  bool allow_nan_;
  int kind_ = 0;
  int remaining_ = 0;
  double base_ = 45.0;
  double slope_ = 0.0;
  double spike_ = 0.0;
  double value_ = 45.0;
  bool spike_phase_ = false;
};

struct FuzzReport {
  std::string target;
  std::uint64_t seed = 0;
  std::uint64_t ticks = 0;
  InvariantReport invariants;

  [[nodiscard]] bool ok() const { return invariants.ok(); }
  [[nodiscard]] std::string to_string() const;
  void merge(const FuzzReport& other);
};

[[nodiscard]] FuzzReport fuzz_unified(std::uint64_t seed, int ticks = 2000);
[[nodiscard]] FuzzReport fuzz_predictive(std::uint64_t seed, int ticks = 2000);
[[nodiscard]] FuzzReport fuzz_pid(std::uint64_t seed, int ticks = 2000);
[[nodiscard]] FuzzReport fuzz_step_wise(std::uint64_t seed, int ticks = 2000);
[[nodiscard]] FuzzReport fuzz_selector(std::uint64_t seed, int rounds = 4000);
/// Hierarchical control plane under a hostile transport: seeded message
/// drop/reorder rates, rack coordinators stalling and resuming mid-run, and
/// random budget/Pp churn injected through the real message path. Checks
/// per plane round that caps stay on the p-state ladder, CPU frequency
/// stays on the advertised table, the join/failsafe state machine stays
/// coherent, and die temperatures stay finite.
[[nodiscard]] FuzzReport fuzz_plane(std::uint64_t seed, int ticks = 2000);

/// All of the above under one seed; reports merge into one.
[[nodiscard]] FuzzReport fuzz_all(std::uint64_t seed, int ticks = 2000);

}  // namespace thermctl::verify
