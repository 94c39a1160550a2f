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

#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/sensor_health.hpp"
#include "core/threshold_technique.hpp"
#include "core/two_level_window.hpp"
#include "obs/trace.hpp"
#include "sysfs/cpufreq.hpp"

namespace thermctl::core {

struct TdvfsConfig {
  PolicyParam pp{};
  /// Trigger threshold (the paper's experiments use 51 °C).
  Celsius threshold{51.0};
  /// Window rounds the average must stay above threshold to count as
  /// "consistent" (rounds are ~1 s at the paper's rates).
  int consistency_rounds = 3;
  /// Thermal control array bound N for the frequency modes.
  std::size_t array_size = 16;
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

  /// A trigger or restore as the family's decision log holds it.
  static TdvfsEvent decode(SimTime at, double from, double to, std::uint8_t /*flags*/) {
    return {at.seconds(), from, to};
  }
};

/// What every tDVFS daemon of one family shares, built once: the config,
/// its mode selector, the frequencies `scaling_available_frequencies`
/// lists, the Eq. (1) array over them at the config's Pp, and the decision
/// log of every member's moves. A ControlBank holds one per family and
/// parses the frequency list once for every node whose cpufreq shares the
/// same p-state table; a standalone daemon owns its own. Pinned in place:
/// every member's array views `modes`.
struct TdvfsFamily {
  TdvfsFamily(const TdvfsConfig& cfg, const sysfs::CpufreqPolicy& cpufreq);
  TdvfsFamily(const TdvfsFamily&) = delete;
  TdvfsFamily& operator=(const TdvfsFamily&) = delete;

  /// True when `other` differs from this family's config in Pp at most and
  /// `cpufreq` lists this family's frequencies.
  [[nodiscard]] bool admits(TdvfsConfig other, const sysfs::CpufreqPolicy& cpufreq) const;

  TdvfsConfig config;
  ModeSelector selector;
  std::vector<double> modes;  // GHz, fastest first
  ThermalControlArray array;
  const void* pstate_table;  // the table the frequency list was parsed from
  /// Every member's moves. The only state a family's members change,
  /// appended from the family's serial tick.
  mutable DecisionLog log;
};

/// tDVFS's plane: frequencies through cpufreq's scaling_setspeed, fastest
/// first.
struct FrequencyPlane {
  using Device = sysfs::CpufreqPolicy;
  using Config = TdvfsConfig;
  using Family = TdvfsFamily;
  using Event = TdvfsEvent;
  static constexpr obs::TraceSubsystem kSubsystem = obs::TraceSubsystem::kTdvfs;
  /// Scale back up once the round average is below threshold − hysteresis.
  static constexpr CelsiusDelta kHysteresis{2.0};
  /// Rounds below (threshold − hysteresis) before restoring the original
  /// frequency. Deliberately longer than the trigger consistency: restoring
  /// eagerly right after a down-scale causes down/up thrash, and transitions
  /// are the reliability cost Table 1 scores.
  static constexpr int kRestoreRounds = 10;
  static constexpr const char* kLogTag = "tdvfs";
  static constexpr const char* kMoveLog = "t=%.2fs frequency %.1f GHz -> %.1f GHz";
  static constexpr const char* kHoldLog = "t=%.2fs sensor failed; holding %.1f GHz";

  static GigaHertz target(double ghz) { return GigaHertz{ghz}; }
  /// Writes can only fail for a non-positive frequency, which no mode list
  /// holds.
  static bool write(Device& cpufreq, double ghz) {
    return cpufreq.set_khz(sysfs::CpufreqPolicy::to_khz(GigaHertz{ghz}));
  }
};

extern template class ThresholdTechnique<FrequencyPlane>;

/// The tDVFS technique: the threshold state machine over the frequency
/// plane. TdvfsDaemon is the standalone form; a UnifiedController feeds one
/// from its shared window and gate.
using TdvfsTechnique = ThresholdTechnique<FrequencyPlane>;

/// The paper's tDVFS daemon: threshold-triggered frequency scaling through
/// its own two-level window and thermal control array.
using TdvfsDaemon = Windowed<TdvfsTechnique>;

}  // namespace thermctl::core
