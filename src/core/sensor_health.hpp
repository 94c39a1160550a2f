// Sensor-health gating (fault-aware sensing for the control stack).
//
// The paper's controllers trust the lm-sensors reading unconditionally, but
// the sensing path they model (on-die diode → ADT7467 → i2c → hwmon) fails in
// practice: stuck-at values, garbage after bus glitches, dropouts. The
// monitor sits between the raw reading and the control law, classifying each
// sample (ok / non-finite / out-of-physical-range / stuck-at / stale) and
// maintaining a last-known-good value with an age.
//
// Isolated bad samples are bridged with the last good value; a *confirmed*
// failure — K consecutive identical readings (stuck-at) or a streak of
// rejected samples — latches `failed()` until the readings demonstrably
// recover for `recovery_samples` in a row. Controllers use the latched state
// to degrade gracefully (fail-safe cooling, DVFS hold) instead of steering on
// garbage, mirroring the explicit sensor-fault paths hardened firmware
// controllers (ControlPULP-style) carry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"

namespace thermctl::core {

/// Classification of one reading (staleness is queried separately — it is a
/// property of the sampling schedule, not of any individual sample).
enum class SensorState : std::uint8_t {
  kOk,
  kNonFinite,    // NaN/Inf — an impossible ADC output, reject outright
  kOutOfRange,   // finite but outside the physically plausible band
  kStuck,        // bit-identical for `stuck_samples` consecutive readings
};

struct SensorHealthConfig {
  /// Physically plausible band for a server-class die sensor. Anything
  /// outside is rejected before the control law sees it.
  Celsius min_plausible{-20.0};
  Celsius max_plausible{120.0};
  /// Consecutive bit-identical readings before the sensor counts as stuck.
  /// At 4 Hz with default quantization noise a healthy sensor toggles codes
  /// every few samples, so 24 (6 s) keeps false positives negligible while
  /// confirming a frozen sensor quickly. Noiseless simulations at a perfectly
  /// steady temperature are indistinguishable from a stuck sensor — raise
  /// this (or disable with 0) in that regime.
  int stuck_samples = 24;
  /// Consecutive rejected (non-finite / out-of-range) readings that confirm
  /// failure; isolated rejects are bridged with the last good value.
  int reject_samples = 4;
  /// Consecutive good readings required to clear a confirmed failure — the
  /// same consistency-count idea the tDVFS restore path uses.
  int recovery_samples = 8;
  /// No observation for this long ⇒ the held value is stale.
  Seconds stale_deadline{2.0};

  bool operator==(const SensorHealthConfig&) const = default;
};

struct SensorHealthStats {
  std::uint64_t samples = 0;
  std::uint64_t rejected = 0;          // non-finite + out-of-range readings
  std::uint64_t stuck_detections = 0;  // distinct stuck-at episodes
  std::uint64_t failures = 0;          // confirmed-failure entries
  std::uint64_t recoveries = 0;        // confirmed-failure exits
};

class SensorHealthMonitor {
 public:
  explicit SensorHealthMonitor(SensorHealthConfig config = {});

  /// Classifies one reading and updates the failure latch. Call once per
  /// sensor sample, in sample order.
  SensorState observe(SimTime now, Celsius reading);

  /// Latched confirmed-failure state (sticky until recovery).
  [[nodiscard]] bool failed() const { return failed_; }

  /// Last reading that classified ok, if any, and its age.
  [[nodiscard]] std::optional<Celsius> last_good() const { return last_good_; }
  [[nodiscard]] Seconds last_good_age(SimTime now) const;

  /// True when no reading has arrived within the stale deadline (or ever).
  [[nodiscard]] bool stale(SimTime now) const;

  [[nodiscard]] const SensorHealthStats& stats() const { return stats_; }
  [[nodiscard]] const SensorHealthConfig& config() const { return config_; }

  /// Drops all history and the failure latch (counters are kept).
  void reset();

 private:
  SensorHealthConfig config_;
  SensorHealthStats stats_;
  std::optional<double> last_raw_;  // previous plausible reading, for stuck runs
  int identical_run_ = 0;
  int reject_run_ = 0;
  int good_run_ = 0;
  bool failed_ = false;
  std::optional<Celsius> last_good_;
  std::optional<SimTime> last_good_time_;
  std::optional<SimTime> last_observe_time_;
};

/// What a SensorGate says about one reading.
struct SensorVerdict {
  /// Push the reading (bridged with the last good one if it was bad) into
  /// the window.
  bool push = true;
  /// The monitor's failure latch is set: the techniques degrade.
  bool failed = false;
};

/// The health gate of one sensor stream, held by whoever owns the window
/// the stream feeds: a standalone controller, or a UnifiedController for
/// each of its techniques. It classifies each reading once, traces the
/// classification, and bridges an isolated bad sample with the last good
/// one; the techniques act only on its verdict.
class SensorGate {
 public:
  /// Allocates a monitor only when `fault_aware`; otherwise every reading
  /// is pushed as it is.
  SensorGate(bool fault_aware, const SensorHealthConfig& config);

  /// Gates `reading`. Non-OK classifications, and the first OK one that
  /// closes a bad streak, go to `trace` tagged `subsystem`.
  SensorVerdict admit(SimTime now, Celsius& reading, obs::TraceRing* trace,
                      obs::TraceSubsystem subsystem) {
    return state_ == nullptr ? SensorVerdict{} : classify(now, reading, trace, subsystem);
  }

  /// The monitor, or nullptr when not fault-aware.
  [[nodiscard]] const SensorHealthMonitor* health() const {
    return state_ == nullptr ? nullptr : &state_->monitor;
  }

 private:
  struct State {
    SensorHealthMonitor monitor;
    bool last_sample_ok = true;  // edge detector for classification events
  };

  SensorVerdict classify(SimTime now, Celsius& reading, obs::TraceRing* trace,
                         obs::TraceSubsystem subsystem);

  std::unique_ptr<State> state_;  // allocated only when fault-aware
};

}  // namespace thermctl::core
