// Sleep-state (idle-injection) thermal control — the third technique family
// §3.2.2 names for the thermal control array ("valid sleep states for
// ACPI-compatible system").
//
// Same machinery as the other techniques: a Pp-filled ThermalControlArray
// whose modes are forced-idle percentages (0 → max clamp, ascending
// effectiveness), the two-level window for prediction, and tDVFS's
// threshold + consistency state machine (threshold_technique.hpp) over the
// powerclamp device. Idle injection is the most intrusive technique (it
// steals whole time slices from the application), so in the unified
// controller it is staged *after* fan and DVFS as the emergency backstop.
#pragma once

#include <cmath>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/threshold_technique.hpp"
#include "core/two_level_window.hpp"
#include "obs/trace.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/powerclamp.hpp"

namespace thermctl::core {

struct IdleInjectionConfig {
  PolicyParam pp{};
  /// Engage only above this (defaults above the tDVFS threshold: last
  /// resort).
  Celsius threshold{56.0};
  int consistency_rounds = 3;
  /// Idle-percent step between modes (0, step, 2·step, … max_state).
  int percent_step = 5;
  std::size_t array_size = 16;

  bool operator==(const IdleInjectionConfig&) const = default;
};

struct ClampEvent {
  double time_s = 0.0;
  long from_percent = 0;
  long to_percent = 0;

  /// A clamp move as the family's decision log holds it.
  static ClampEvent decode(SimTime at, double from, double to, std::uint8_t /*flags*/) {
    return {at.seconds(), std::lround(from), std::lround(to)};
  }
};

/// What every idle-injection technique of one family shares, built once:
/// the config, its mode selector, the idle percentages `clamp` accepts, the
/// Eq. (1) array over them at the config's Pp, and the decision log of
/// every member's moves. A UnifiedFamily holds one for its backstop; a
/// standalone controller owns its own. Pinned in place: every member's
/// array views `modes`.
struct IdleInjectionFamily {
  IdleInjectionFamily(const IdleInjectionConfig& cfg, const sysfs::PowerClampDevice& clamp);
  IdleInjectionFamily(const IdleInjectionFamily&) = delete;
  IdleInjectionFamily& operator=(const IdleInjectionFamily&) = delete;

  IdleInjectionConfig config;
  ModeSelector selector;
  std::vector<double> modes;  // idle percents, ascending
  ThermalControlArray array;
  /// Every member's moves. The only state a family's members change,
  /// appended from the family's serial tick.
  mutable DecisionLog log;
};

/// Idle injection's plane: forced-idle percentages through the powerclamp
/// cooling device's cur_state. It traces under kIdle with tDVFS's event
/// types (a and b in idle percent).
struct ClampPlane {
  using Device = sysfs::PowerClampDevice;
  using Config = IdleInjectionConfig;
  using Family = IdleInjectionFamily;
  using Event = ClampEvent;
  static constexpr obs::TraceSubsystem kSubsystem = obs::TraceSubsystem::kIdle;
  static constexpr CelsiusDelta kHysteresis{2.0};
  /// Rounds below (threshold − hysteresis) before releasing the clamp.
  static constexpr int kRestoreRounds = 8;
  static constexpr const char* kLogTag = "powerclamp";
  static constexpr const char* kMoveLog = "t=%.2fs idle injection %.0f%% -> %.0f%%";
  static constexpr const char* kHoldLog = "t=%.2fs sensor failed; holding %.0f%% idle";

  static long target(double percent) { return std::lround(percent); }
  static bool write(Device& clamp, double percent) { return clamp.set_cur_state(target(percent)); }
};

extern template class ThresholdTechnique<ClampPlane>;

/// The idle-injection technique: the threshold state machine over the
/// clamp plane. A UnifiedController feeds one from its shared window and
/// gate as its backstop.
using IdleInjectionTechnique = ThresholdTechnique<ClampPlane>;

/// A standalone idle-injection controller: the technique behind its own
/// window. Its config has no fault-aware knob, so no gate stands in front.
class IdleInjectionController : public IdleInjectionTechnique {
 public:
  IdleInjectionController(sysfs::HwmonDevice& hwmon, sysfs::PowerClampDevice& clamp,
                          const IdleInjectionConfig& config);

  /// Controller tick at the sensor sampling rate.
  void on_sample(SimTime now);

  /// Re-tunes the policy parameter; the window's history is dropped.
  void set_policy(PolicyParam pp) { IdleInjectionTechnique::set_policy(pp, window_); }

 private:
  TwoLevelWindow window_;
};

}  // namespace thermctl::core
