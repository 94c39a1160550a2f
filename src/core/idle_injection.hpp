// Sleep-state (idle-injection) thermal control — the third technique family
// §3.2.2 names for the thermal control array ("valid sleep states for
// ACPI-compatible system").
//
// Same machinery as the other techniques: a Pp-filled ThermalControlArray
// whose modes are forced-idle percentages (0 → max clamp, ascending
// effectiveness), the two-level window for prediction, threshold +
// consistency gating like tDVFS. Idle injection is the most intrusive
// technique (it steals whole time slices from the application), so in the
// unified controller it is staged *after* fan and DVFS as the emergency
// backstop.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/two_level_window.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/powerclamp.hpp"

namespace thermctl::core {

struct IdleInjectionConfig {
  PolicyParam pp{};
  /// Engage only above this (defaults above the tDVFS threshold: last
  /// resort).
  Celsius threshold{56.0};
  CelsiusDelta hysteresis{2.0};
  int consistency_rounds = 3;
  /// Rounds below (threshold − hysteresis) before releasing the clamp.
  int release_rounds = 8;
  /// Idle-percent step between modes (0, step, 2·step, … max_state).
  int percent_step = 5;
  std::size_t array_size = 16;
  ModeSelectorConfig selector{};
  WindowConfig window{};

  bool operator==(const IdleInjectionConfig&) const = default;
};

struct ClampEvent {
  double time_s = 0.0;
  long from_percent = 0;
  long to_percent = 0;
};

class IdleInjectionController {
 public:
  IdleInjectionController(sysfs::HwmonDevice& hwmon, sysfs::PowerClampDevice& clamp,
                          IdleInjectionConfig config);

  /// Controller tick at the sensor sampling rate.
  void on_sample(SimTime now);

  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] long current_percent() const;
  [[nodiscard]] const std::vector<ClampEvent>& events() const { return events_; }
  [[nodiscard]] const ThermalControlArray& array() const { return array_; }

  void set_policy(PolicyParam pp);

 private:
  static std::vector<double> clamp_modes(const sysfs::PowerClampDevice& clamp,
                                         const IdleInjectionConfig& config);
  void retarget(SimTime now, std::size_t target);

  sysfs::HwmonDevice& hwmon_;
  sysfs::PowerClampDevice& clamp_;
  IdleInjectionConfig config_;
  ThermalControlArray array_;
  ModeSelector selector_;
  TwoLevelWindow window_;
  std::size_t index_ = 0;
  int rounds_above_ = 0;
  int rounds_below_ = 0;
  std::vector<ClampEvent> events_;
};

}  // namespace thermctl::core
