// Fan-speed control policies (§4.2).
//
// Three policies from the paper's evaluation:
//
//  * DynamicFanController — the contribution: history-based, context-aware
//    PWM control through the two-level window + thermal control array. Duty
//    modes are the integers 1..max% (the paper discretizes the continuous
//    fan speed into 100 distinct speeds); effectiveness ascends with duty.
//    Its constants live once per family (FanFamily); each node keeps only
//    its own state and Pp.
//
//  * StaticFanPolicy — the "traditional" baseline: the ADT7467's automatic
//    curve (Fig. 1), PWMmin=10% below Tmin=38 °C rising linearly to 100% at
//    Tmax=82 °C, optionally capped at a maximum duty.
//
//  * ConstantFanPolicy — fixed duty (the paper uses 75%), the
//    coolest-but-most-power reference in Fig. 6.
//
// All three actuate through the sysfs/hwmon + i2c driver path, never by
// touching the FanDevice directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/sensor_health.hpp"
#include "core/two_level_window.hpp"
#include "obs/trace.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {

struct FanControlConfig {
  PolicyParam pp{};
  /// Thermal control array bound N (the paper's 100 distinct speeds).
  std::size_t array_size = 100;
  /// Physical duty range; max_duty emulates less powerful fans (Fig. 7).
  DutyCycle min_duty{1.0};
  DutyCycle max_duty{100.0};
  ModeSelectorConfig selector{};
  WindowConfig window{};
  /// Gate a standalone controller's readings through a SensorHealthMonitor
  /// and fail safe (escalate to the array's most effective mode) on
  /// confirmed sensor failure. Off by default: the paper's controller
  /// trusts its sensor, and zero-fault runs must behave identically either
  /// way. A UnifiedController reads its own knob instead.
  bool fault_aware = false;
  SensorHealthConfig health{};

  bool operator==(const FanControlConfig&) const = default;
};

/// One controller retarget, for figure annotations and tests.
struct FanEvent {
  double time_s = 0.0;
  double from_duty = 0.0;
  double to_duty = 0.0;
  bool used_level2 = false;
};

/// What every dynamic fan controller of one family shares, built once: the
/// config, its mode selector and the Eq. (1) array at the config's Pp. A
/// ControlBank holds one per family; a standalone controller owns its own.
struct FanFamily {
  explicit FanFamily(const FanControlConfig& cfg);

  /// True when `other` differs from this family's config in Pp at most.
  [[nodiscard]] bool admits(FanControlConfig other) const;

  FanControlConfig config;
  ModeSelector selector;
  ThermalControlArray array;
};

/// The dynamic fan technique without a window or a sensor gate of its own:
/// it degrades on its owner's gate verdicts and acts on the rounds its
/// owner's window closes. DynamicFanController is the standalone form; a
/// UnifiedController feeds one from its shared window and gate.
class FanTechnique {
 public:
  /// The subsystem a standalone controller's gate tags its classifications
  /// with.
  static constexpr obs::TraceSubsystem kSubsystem = obs::TraceSubsystem::kFan;

  /// A technique with its own family, built from `config`.
  FanTechnique(sysfs::HwmonDevice& hwmon, const FanControlConfig& config);
  /// A member of `family` running at this node's `pp`.
  FanTechnique(sysfs::HwmonDevice& hwmon, std::shared_ptr<const FanFamily> family,
               PolicyParam pp);

  /// Starts a tick, before the gate classifies its reading: keeps the
  /// ring's clock fresh before any bus traffic, so i2c retry events land at
  /// this tick's sim time, and takes over the fan on the first call.
  void begin(SimTime now) {
    THERMCTL_TRACE_SET_TIME(trace_, now.seconds());
    if (!initialized_) {
      take_over();
    }
  }

  /// Applies the gate's verdict: fails safe to the most effective mode
  /// while the sensor is failed, and resumes from the top of the array
  /// once it recovers. Resets `window` on fail-safe entry and exit.
  void on_verdict(SimTime now, SensorVerdict verdict, TwoLevelWindow& window) {
    if (verdict.failed || failsafe_) {
      fail_safe(now, verdict.failed, window);
    }
  }

  /// Acts on a completed window round: selector decision, maybe a retarget.
  void act(SimTime now, const WindowRound& round);

  /// Re-tunes the policy parameter; old history predicts behaviour under
  /// the old fill, so `window` is reset.
  void set_policy(PolicyParam pp, TwoLevelWindow& window);

  [[nodiscard]] Celsius read_temperature() const { return hwmon_.read_temperature(); }
  /// The family's config. Its `pp` is the family's; this node's current Pp
  /// is array().policy().
  [[nodiscard]] const FanControlConfig& config() const { return family_->config; }
  /// The family's constants: config, mode selector and Eq. (1) array.
  [[nodiscard]] const FanFamily& family() const { return *family_; }

  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] DutyCycle current_duty() const;
  [[nodiscard]] const ThermalControlArray& array() const { return array_; }
  [[nodiscard]] const std::vector<FanEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t retarget_count() const { return retargets_; }

  /// Fail-safe cooling state (only ever true behind a fault-aware gate).
  [[nodiscard]] bool in_failsafe() const { return failsafe_; }
  [[nodiscard]] std::uint64_t failsafe_entries() const { return failsafe_entries_; }
  [[nodiscard]] std::uint64_t failsafe_exits() const { return failsafe_exits_; }

  /// Attaches a decision-trace ring (nullptr detaches). Every window round,
  /// selector decision, PWM retarget and fail-safe transition is then
  /// recorded, and the owner's gate traces its classifications there;
  /// control behaviour is unchanged.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceRing* trace() const { return trace_; }

 private:
  /// Claims manual PWM control and starts at the bottom of the array.
  void take_over();
  /// on_verdict()'s fail-safe entry, write retry and exit.
  void fail_safe(SimTime now, bool failed, TwoLevelWindow& window);

  // What every tick and every round without a retarget reads comes first:
  // 56 bytes, within one cache line when the technique is line-aligned.
  obs::TraceRing* trace_ = nullptr;
  std::shared_ptr<const FanFamily> family_;
  ThermalControlArray array_;  // the family's fill, re-pointed to this node's Pp
  std::size_t index_ = 0;
  bool initialized_ = false;
  bool failsafe_ = false;
  bool failsafe_applied_ = false;  // fail-safe duty reached the chip
  sysfs::HwmonDevice& hwmon_;
  std::vector<FanEvent> events_;
  std::uint64_t retargets_ = 0;
  std::uint64_t failsafe_entries_ = 0;
  std::uint64_t failsafe_exits_ = 0;
};

/// The paper's dynamic fan controller: history-based PWM control through
/// its own two-level window and thermal control array.
using DynamicFanController = Windowed<FanTechnique>;

/// Applies the traditional static policy: programs the Fig. 1 curve into the
/// chip and hands PWM control to its automatic mode.
class StaticFanPolicy {
 public:
  struct Curve {
    DutyCycle pwm_min{10.0};
    Celsius tmin{38.0};
    Celsius tmax{82.0};
  };

  StaticFanPolicy(sysfs::Adt7467Driver& driver, Curve curve, DutyCycle max_duty);

  /// Writes the configuration; returns false on an i2c failure.
  bool apply();

  [[nodiscard]] const Curve& curve() const { return curve_; }

 private:
  sysfs::Adt7467Driver& driver_;
  Curve curve_;
  DutyCycle max_duty_;
};

/// Pins the fan at a fixed duty through the manual-mode path.
class ConstantFanPolicy {
 public:
  ConstantFanPolicy(sysfs::HwmonDevice& hwmon, DutyCycle duty);
  bool apply();

 private:
  sysfs::HwmonDevice& hwmon_;
  DutyCycle duty_;
};

}  // namespace thermctl::core
