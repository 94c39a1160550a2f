// tDVFS — the temperature-aware DVFS daemon (§4.1, §4.3).
//
// The paper's in-band technique: "our strategy for DVFS control is not to
// scale down frequency unless necessary because low frequencies impact
// application performance ... we trigger frequency scaling when the
// temperature reaches a threshold." Concretely:
//
//  * scale DOWN only when the round-average temperature has been
//    *consistently* above the threshold (51 °C on the paper's platform) for
//    `consistency_rounds` window rounds — single hot rounds and jitter do
//    not trigger (the red-circled non-response in Fig. 8);
//  * how far down is governed by the same thermal control array / Pp
//    machinery as the fan (frequencies ordered fastest → slowest by
//    effectiveness), so one Pp steers both techniques;
//  * scale back UP to the original frequency once the average has been
//    consistently below (threshold − hysteresis), "so as to avoid
//    performance loss".
//
// Actuation goes through the cpufreq sysfs path; transition counts (Table 1)
// therefore come from the same `stats/total_trans` a real system reports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/sensor_health.hpp"
#include "core/two_level_window.hpp"
#include "obs/trace.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {

struct TdvfsConfig {
  PolicyParam pp{};
  /// Trigger threshold (the paper's experiments use 51 °C).
  Celsius threshold{51.0};
  /// Scale back up once average temperature < threshold − hysteresis.
  CelsiusDelta hysteresis{2.0};
  /// Window rounds the average must stay above threshold to count as
  /// "consistent" (rounds are ~1 s at the paper's rates).
  int consistency_rounds = 3;
  /// Rounds below (threshold − hysteresis) before restoring the original
  /// frequency. Deliberately longer than the trigger consistency: restoring
  /// eagerly right after a down-scale causes down/up thrash, and transitions
  /// are the reliability cost Table 1 scores.
  int restore_rounds = 10;
  /// Thermal control array bound N for the frequency modes.
  std::size_t array_size = 16;
  ModeSelectorConfig selector{};
  WindowConfig window{};
  /// Gate a standalone daemon's readings through a SensorHealthMonitor and
  /// *hold* the current frequency on confirmed sensor failure: scaling on
  /// garbage would oscillate, and the fan's fail-safe already covers
  /// cooling. Off by default for bit-identical zero-fault behaviour. A
  /// UnifiedController reads its own knob instead.
  bool fault_aware = false;
  SensorHealthConfig health{};

  bool operator==(const TdvfsConfig&) const = default;
};

struct TdvfsEvent {
  double time_s = 0.0;
  double from_ghz = 0.0;
  double to_ghz = 0.0;
};

/// What every tDVFS daemon of one family shares, built once: the config,
/// its mode selector and the Eq. (1) array, at the config's Pp, over the
/// frequencies `scaling_available_frequencies` lists. A ControlBank holds
/// one per family and parses the frequency list once for every node whose
/// cpufreq shares the same p-state table; a standalone daemon owns its own.
struct TdvfsFamily {
  TdvfsFamily(const TdvfsConfig& cfg, const sysfs::CpufreqPolicy& cpufreq);

  /// True when `other` differs from this family's config in Pp at most and
  /// `cpufreq` lists this family's frequencies.
  [[nodiscard]] bool admits(TdvfsConfig other, const sysfs::CpufreqPolicy& cpufreq) const;

  TdvfsConfig config;
  ModeSelector selector;
  ThermalControlArray array;
  const void* pstate_table;  // the table the frequency list was parsed from
};

/// The tDVFS technique without a window or a sensor gate of its own: it
/// holds on its owner's gate verdicts and acts on the rounds its owner's
/// window closes. TdvfsDaemon is the standalone form; a UnifiedController
/// feeds one from its shared window and gate.
class TdvfsTechnique {
 public:
  /// The subsystem a standalone daemon's gate tags its classifications
  /// with.
  static constexpr obs::TraceSubsystem kSubsystem = obs::TraceSubsystem::kTdvfs;

  /// A technique with its own family, built from `config`.
  TdvfsTechnique(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                 const TdvfsConfig& config);
  /// A member of `family` running at this node's `pp`.
  TdvfsTechnique(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                 std::shared_ptr<const TdvfsFamily> family, PolicyParam pp);

  /// Starts a tick, before the gate classifies its reading: keeps the
  /// ring's clock fresh.
  void begin(SimTime now) { THERMCTL_TRACE_SET_TIME(trace_, now.seconds()); }

  /// Applies the gate's verdict: holds the current frequency while the
  /// sensor is failed, and resumes once it recovers. Resets `window` on
  /// hold entry.
  void on_verdict(SimTime now, SensorVerdict verdict, TwoLevelWindow& window) {
    if (verdict.failed || holding_) {
      hold(now, verdict.failed, window);
    }
  }

  /// Acts on a completed window round: consistency counting, then maybe a
  /// trigger or a restore.
  void act(SimTime now, const WindowRound& round);

  /// Re-tunes the policy parameter and resets `window`.
  void set_policy(PolicyParam pp, TwoLevelWindow& window);

  [[nodiscard]] Celsius read_temperature() const { return hwmon_.read_temperature(); }

  [[nodiscard]] std::size_t current_index() const { return index_; }
  [[nodiscard]] GigaHertz current_target() const;
  [[nodiscard]] const std::vector<TdvfsEvent>& events() const { return events_; }
  [[nodiscard]] const ThermalControlArray& array() const { return array_; }
  /// The family's config. Its `pp` is the family's; this node's current Pp
  /// is array().policy().
  [[nodiscard]] const TdvfsConfig& config() const { return family_->config; }

  /// Round-average temperature of the most recently completed window round
  /// (nullopt until one completes). Read-only observability for the
  /// verification layer's coordination invariant: a trigger without a
  /// threshold-crossing average is a bug.
  [[nodiscard]] std::optional<Celsius> last_round_average() const {
    return last_round_average_;
  }

  /// Frequency-hold state (only ever true behind a fault-aware gate).
  [[nodiscard]] bool holding() const { return holding_; }
  [[nodiscard]] std::uint64_t hold_entries() const { return hold_entries_; }
  [[nodiscard]] std::uint64_t held_ticks() const { return held_ticks_; }

  /// Attaches a decision-trace ring (nullptr detaches). Window rounds,
  /// selector decisions, trigger/restore transitions (with the consistency
  /// counts that armed them), and hold transitions are then recorded.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceRing* trace() const { return trace_; }

 private:
  /// on_verdict()'s hold entry, held-tick count and exit.
  void hold(SimTime now, bool failed, TwoLevelWindow& window);

  /// `consistency` and `is_restore` feed the decision trace: how many
  /// consistent rounds armed this move and which direction it is.
  void retarget(SimTime now, std::size_t target, int consistency, bool used_level2,
                bool is_restore);

  // What every tick reads, and all but the round average a round reads,
  // comes first: 64 bytes, one cache line when the technique is aligned.
  obs::TraceRing* trace_ = nullptr;
  std::shared_ptr<const TdvfsFamily> family_;
  ThermalControlArray array_;  // the family's fill, re-pointed to this node's Pp
  std::size_t index_ = 0;      // 0 = least effective = original (fastest) mode
  int rounds_above_ = 0;
  int rounds_below_ = 0;
  std::optional<Celsius> last_round_average_;
  bool holding_ = false;
  sysfs::HwmonDevice& hwmon_;
  sysfs::CpufreqPolicy& cpufreq_;
  std::vector<TdvfsEvent> events_;
  std::uint64_t hold_entries_ = 0;
  std::uint64_t held_ticks_ = 0;
};

/// The paper's tDVFS daemon: threshold-triggered frequency scaling through
/// its own two-level window and thermal control array.
using TdvfsDaemon = Windowed<TdvfsTechnique>;

}  // namespace thermctl::core
