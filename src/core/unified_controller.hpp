// The unified in-band + out-of-band controller (§4.4).
//
// Coordination as the paper defines it: "use fan to control temperature if
// possible, and trigger tDVFS to scale down frequency only when temperature
// is above a threshold." Both techniques are driven from the same sensor
// stream, are filled from the same thermal control array machinery, and take
// one shared policy parameter Pp — a small Pp makes the *fan* aggressive,
// which keeps temperature below the tDVFS threshold longer and defers the
// in-band (performance-costly) response; a large Pp conserves fan power and
// lets tDVFS fire earlier. That interplay is exactly Fig. 10.
#pragma once

#include <memory>

#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/idle_injection.hpp"
#include "core/policy.hpp"
#include "core/tdvfs.hpp"

namespace thermctl::core {

struct UnifiedConfig {
  PolicyParam pp{};
  FanControlConfig fan{};
  TdvfsConfig tdvfs{};
  /// The one two-level window every technique reads: it overrides the
  /// sub-configs' windows.
  WindowConfig window{};
  /// Optional third technique (sleep-state / idle-injection backstop).
  /// Requires the clamp-aware constructor; its threshold should sit above
  /// tdvfs.threshold so it only engages when DVFS alone is losing.
  bool enable_idle_injection = false;
  IdleInjectionConfig idle{};
  /// Fault-awareness for the one sensor stream every technique reads: the
  /// controller's one SensorHealthMonitor classifies each reading once, and
  /// each technique degrades its own way on the verdict — the fan fails
  /// safe to maximum cooling, tDVFS holds its frequency and the
  /// idle-injection backstop holds its clamp. The sub-configs' own knobs
  /// are not read.
  bool fault_aware = false;
  SensorHealthConfig health{};

  bool operator==(const UnifiedConfig&) const = default;
};

/// What every unified controller of one family shares, built once: the
/// harmonized config and each technique's family. A ControlBank holds one;
/// a standalone controller builds its own.
struct UnifiedFamily {
  /// Builds the idle-injection backstop's family only with a `clamp` and
  /// config.enable_idle_injection.
  UnifiedFamily(const UnifiedConfig& cfg, const sysfs::CpufreqPolicy& cpufreq,
                const sysfs::PowerClampDevice* clamp = nullptr);

  /// True when `other` differs from this family's config in Pp at most and
  /// `cpufreq` lists this family's frequencies.
  [[nodiscard]] bool admits(UnifiedConfig other, const sysfs::CpufreqPolicy& cpufreq) const;

  UnifiedConfig config;  // harmonized: one Pp and window throughout
  std::shared_ptr<const FanFamily> fan;
  std::shared_ptr<const TdvfsFamily> tdvfs;
  std::shared_ptr<const IdleInjectionFamily> idle;  // null without a backstop
};

/// One gate, one window, two or three techniques: each sample is
/// classified once, its verdict goes to the fan technique, the sample is
/// pushed into the window once, each completed round goes to the fan
/// technique, and then the verdict and the round go to tDVFS and, last, to
/// the idle-injection backstop.
class UnifiedController {
 public:
  /// Both techniques act on the same node through its sysfs planes.
  UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                    const UnifiedConfig& config);

  /// Three-technique variant: fan + DVFS + idle-injection backstop (enabled
  /// via config.enable_idle_injection).
  UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                    sysfs::PowerClampDevice& clamp, const UnifiedConfig& config);

  /// A member of `family` running at this node's `pp`; `clamp` hosts the
  /// idle-injection backstop when the family has one, and may be null
  /// otherwise.
  UnifiedController(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                    sysfs::PowerClampDevice* clamp, const UnifiedFamily& family,
                    PolicyParam pp);

  /// One controller tick at the sensor sampling rate. The out-of-band
  /// technique runs first (it is free), then the in-band one.
  void on_sample(SimTime now);

  /// on_sample with the shared hwmon reading supplied by the caller (the
  /// ControlBank batches the sensor reads across a fleet). `reading` must
  /// equal what hwmon.read_temperature() would return at this tick; the
  /// tick then behaves byte-for-byte the same.
  void on_sample_with(SimTime now, Celsius reading);

  /// Applies one Pp to every technique (the paper's single-knob contract).
  void set_policy(PolicyParam pp);

  [[nodiscard]] FanTechnique& fan() { return fan_; }
  [[nodiscard]] const FanTechnique& fan() const { return fan_; }
  [[nodiscard]] TdvfsTechnique& dvfs() { return dvfs_; }
  [[nodiscard]] const TdvfsTechnique& dvfs() const { return dvfs_; }
  /// The one sampling window every technique reads (read-only).
  [[nodiscard]] const TwoLevelWindow& window() const { return window_; }
  /// The one gate's monitor, or nullptr when not fault-aware.
  [[nodiscard]] const SensorHealthMonitor* health() const { return gate_.health(); }
  [[nodiscard]] bool has_idle_injection() const { return idle_ != nullptr; }
  [[nodiscard]] IdleInjectionTechnique& idle_injection() { return *idle_; }
  [[nodiscard]] const IdleInjectionTechnique& idle_injection() const { return *idle_; }

  /// Time of the first in-band (DVFS) intervention, if any — the "trigger
  /// time" Fig. 10 compares across Pp.
  [[nodiscard]] double first_dvfs_trigger_s() const;

  /// Attaches one decision-trace ring to the fan and tDVFS techniques
  /// (nullptr detaches): their events interleave on the node's single
  /// timeline, distinguished by subsystem. The gate's classifications are
  /// tagged with the fan's. The idle-injection backstop stays untraced.
  void set_trace(obs::TraceRing* trace) {
    fan_.set_trace(trace);
    dvfs_.set_trace(trace);
  }

 private:
  TwoLevelWindow window_;
  SensorGate gate_;
  FanTechnique fan_;
  TdvfsTechnique dvfs_;
  std::unique_ptr<IdleInjectionTechnique> idle_;  // only with the family's backstop
};

}  // namespace thermctl::core
