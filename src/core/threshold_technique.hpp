// The threshold technique — tDVFS's consistency state machine (§4.1),
// shared by every technique that engages only above a temperature
// threshold: tDVFS over the frequency plane (tdvfs.hpp) and idle injection
// over the clamp plane (idle_injection.hpp), §3.2.2's sleep states.
//
//  * A round whose average is above the threshold counts toward a trigger,
//    one below (threshold − hysteresis) toward a restore; one inside the
//    band resets both counts.
//  * `consistency_rounds` hot rounds in a row trigger a move at least to
//    the next cell holding a *distinct* mode (the Pp fill may duplicate
//    modes across cells), further when the selector's i + c·Δt says so.
//  * The plane's restore count of cool rounds in a row returns the
//    technique to cell 0, its least intrusive mode.
//  * A move commits its index, and is traced and appended to the family's
//    decision log, only once the device write lands: after a failed write
//    the technique still believes the mode the device holds.
//  * On its owner's failed-sensor verdict the technique holds its mode and
//    forgets its counts.
//
// Like the fan technique it has no window or sensor gate of its own: it
// holds on its owner's gate verdicts and acts on the rounds its owner's
// window closes. A Plane names what differs between techniques: its device,
// config, family and event types, its hysteresis and restore count, how a
// mode is written and reported, its trace subsystem and its log lines. The
// Event type decodes the family's decision log (decision_log.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/control_array.hpp"
#include "core/decision_log.hpp"
#include "core/mode_selector.hpp"
#include "core/policy.hpp"
#include "core/sensor_health.hpp"
#include "core/two_level_window.hpp"
#include "obs/trace.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::core {

template <typename Plane>
class ThresholdTechnique {
 public:
  using Config = typename Plane::Config;
  using Family = typename Plane::Family;
  using Device = typename Plane::Device;
  using Event = typename Plane::Event;

  /// The subsystem a standalone controller's gate tags its classifications
  /// with.
  static constexpr obs::TraceSubsystem kSubsystem = Plane::kSubsystem;

  /// A technique with its own family, built from `config`.
  ThresholdTechnique(sysfs::HwmonDevice& hwmon, Device& device, const Config& config)
      : ThresholdTechnique(hwmon, device, std::make_shared<const Family>(config, device),
                           config.pp) {}
  /// A member of `family` running at this node's `pp`.
  ThresholdTechnique(sysfs::HwmonDevice& hwmon, Device& device,
                     std::shared_ptr<const Family> family, PolicyParam pp)
      : family_(std::move(family)), array_(family_->array), hwmon_(hwmon), device_(device) {
    if (pp != array_.policy()) {
      array_.set_policy(pp);
    }
  }

  // A copy would append to the node's chain in the family's log behind the
  // original's back.
  ThresholdTechnique(const ThresholdTechnique&) = delete;
  ThresholdTechnique& operator=(const ThresholdTechnique&) = delete;
  ThresholdTechnique(ThresholdTechnique&&) = default;

  /// Starts a tick, before the gate classifies its reading: keeps the
  /// ring's clock fresh.
  void begin(SimTime now) { THERMCTL_TRACE_SET_TIME(trace_, now.seconds()); }

  /// Applies the gate's verdict: holds the current mode while the sensor
  /// is failed, and resumes once it recovers. Resets `window` on hold
  /// entry.
  void on_verdict(SimTime now, SensorVerdict verdict, TwoLevelWindow& window) {
    if (verdict.failed || holding_) {
      hold(now, verdict.failed, window);
    }
  }

  /// Acts on a completed window round: consistency counting, then maybe a
  /// trigger or a restore.
  void act(SimTime now, const WindowRound& round);

  /// Re-tunes the policy parameter and resets `window`.
  void set_policy(PolicyParam pp, TwoLevelWindow& window) {
    array_.set_policy(pp);
    window.reset();
  }

  [[nodiscard]] Celsius read_temperature() const { return hwmon_.read_temperature(); }

  [[nodiscard]] std::size_t current_index() const { return index_; }
  /// This node's moves, in order, decoded from the family's log.
  [[nodiscard]] DecisionView<Event> events() const {
    return {family_->log, family_->modes, decisions_};
  }
  [[nodiscard]] const ThermalControlArray& array() const { return array_; }
  /// The family's config. Its `pp` is the family's; this node's current Pp
  /// is array().policy().
  [[nodiscard]] const Config& config() const { return family_->config; }

  /// Round-average temperature of the most recently completed window round
  /// (nullopt until one completes). Read-only observability for the
  /// verification layer's coordination invariant: a trigger without a
  /// threshold-crossing average is a bug.
  [[nodiscard]] std::optional<Celsius> last_round_average() const {
    return last_round_average_;
  }

  /// Mode-hold state (only ever true behind a fault-aware gate).
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

  /// The move to `target`: writes the mode and, once the write landed,
  /// commits the index, traces the trigger or restore and appends it to the
  /// family's log. The one place a move is traced and recorded.
  /// `consistency` and `is_restore` feed the decision trace: how many
  /// consistent rounds armed this move and which direction it is.
  void retarget(SimTime now, std::size_t target, int consistency, bool used_level2,
                bool is_restore);

  // What every tick reads, and all but the round average a round reads,
  // comes first: 64 bytes, one cache line when the technique is aligned.
  obs::TraceRing* trace_ = nullptr;
  std::shared_ptr<const Family> family_;
  ThermalControlArray array_;  // the family's array, re-tuned to this node's Pp
  std::size_t index_ = 0;      // 0 = least effective = least intrusive mode
  int rounds_above_ = 0;
  int rounds_below_ = 0;
  std::optional<Celsius> last_round_average_;
  bool holding_ = false;
  DecisionChain decisions_;  // this node's records in family_->log
  sysfs::HwmonDevice& hwmon_;
  Device& device_;
  std::uint64_t hold_entries_ = 0;
  std::uint64_t held_ticks_ = 0;
};

template <typename Plane>
void ThresholdTechnique<Plane>::retarget(SimTime now, std::size_t target, int consistency,
                                         bool used_level2, bool is_restore) {
  const double from = array_.mode(index_);
  const double to = array_.mode(target);
  if (to == from) {
    // Distinct cells can hold the same mode (Eq. (1) duplicates): nothing
    // to write or record.
    index_ = target;
    return;
  }
  if (!Plane::write(device_, to)) {
    return;
  }
  THERMCTL_TRACE_EMIT(trace_,
                      (obs::TraceEvent{.type = is_restore ? obs::TraceEventType::kTdvfsRestore
                                                          : obs::TraceEventType::kTdvfsTrigger,
                                       .subsystem = kSubsystem,
                                       .flags = used_level2 ? obs::kTraceFlagUsedLevel2
                                                            : obs::kTraceFlagNone,
                                       .i0 = consistency,
                                       .i1 = static_cast<std::int64_t>(target),
                                       .a = from,
                                       .b = to}));
  family_->log.append(decisions_, now, array_.mode_index(index_), array_.mode_index(target),
                      static_cast<std::uint8_t>((used_level2 ? DecisionLog::kLevel2 : 0u) |
                                                (is_restore ? DecisionLog::kRestore : 0u)));
  index_ = target;
  THERMCTL_LOG_INFO(Plane::kLogTag, Plane::kMoveLog, now.seconds(), from, to);
}

template <typename Plane>
void ThresholdTechnique<Plane>::hold(SimTime now, bool failed, TwoLevelWindow& window) {
  if (failed) {
    if (!holding_) {
      holding_ = true;
      ++hold_entries_;
      // Forget the pre-failure trend; whatever consistency was building
      // was built on readings we now distrust.
      rounds_above_ = 0;
      rounds_below_ = 0;
      window.reset();
      THERMCTL_TRACE_EMIT(trace_, (obs::TraceEvent{.type = obs::TraceEventType::kDvfsHoldEnter,
                                                   .subsystem = kSubsystem,
                                                   .a = array_.mode(index_)}));
      THERMCTL_LOG_INFO(Plane::kLogTag, Plane::kHoldLog, now.seconds(), array_.mode(index_));
    }
    ++held_ticks_;
    return;
  }
  holding_ = false;
  THERMCTL_TRACE_EMIT(trace_, (obs::TraceEvent{.type = obs::TraceEventType::kDvfsHoldExit,
                                               .subsystem = kSubsystem}));
  THERMCTL_LOG_INFO(Plane::kLogTag, "t=%.2fs sensor recovered; resuming control", now.seconds());
}

template <typename Plane>
void ThresholdTechnique<Plane>::act(SimTime now, const WindowRound& round) {
  THERMCTL_TRACE_EMIT(
      trace_,
      (obs::TraceEvent{.type = obs::TraceEventType::kWindowRound,
                       .subsystem = kSubsystem,
                       .flags = round.level2_valid ? obs::kTraceFlagLevel2Valid
                                                  : obs::kTraceFlagNone,
                       .a = round.level1_average.value(),
                       .b = round.level1_delta.value(),
                       .c = round.level2_delta.value()}));

  const Config& config = family_->config;
  const double avg = round.level1_average.value();
  last_round_average_ = round.level1_average;
  if (avg > config.threshold.value()) {
    ++rounds_above_;
    rounds_below_ = 0;
  } else if (avg < config.threshold.value() - Plane::kHysteresis.value()) {
    ++rounds_below_;
    rounds_above_ = 0;
  } else {
    // Inside the hysteresis band: neither trend is "consistent".
    rounds_above_ = 0;
    rounds_below_ = 0;
  }

  if (rounds_above_ >= config.consistency_rounds) {
    // Consistently hot: each trigger must actually change the mode, so the
    // floor of the move is the next cell holding a distinct mode; the
    // window's prediction can push further (i + c·Δt).
    std::size_t next_distinct = index_;
    while (next_distinct + 1 < array_.size() &&
           array_.mode(next_distinct) == array_.mode(index_)) {
      ++next_distinct;
    }
    const ModeDecision d = family_->selector.decide(index_, round);
    THERMCTL_TRACE_EMIT(trace_,
                        (obs::TraceEvent{.type = obs::TraceEventType::kModeDecision,
                                         .subsystem = kSubsystem,
                                         .flags = (d.changed ? obs::kTraceFlagChanged : 0u) |
                                                  (d.used_level2 ? obs::kTraceFlagUsedLevel2 : 0u) |
                                                  (d.clamped ? obs::kTraceFlagClamped : 0u),
                                         .i0 = static_cast<std::int64_t>(index_),
                                         .i1 = static_cast<std::int64_t>(d.target),
                                         .a = d.raw_target,
                                         .b = d.delta_used.value(),
                                         .c = array_.mode(d.target)}));
    std::size_t target = d.changed ? std::max(d.target, next_distinct) : next_distinct;
    target = std::min(target, array_.size() - 1);
    retarget(now, target, rounds_above_, d.changed && d.used_level2, /*is_restore=*/false);
    rounds_above_ = 0;
  } else if (rounds_below_ >= Plane::kRestoreRounds && index_ != 0) {
    // Consistently cool again: restore the least intrusive mode outright.
    retarget(now, 0, rounds_below_, /*used_level2=*/false, /*is_restore=*/true);
    rounds_below_ = 0;
  }
}

}  // namespace thermctl::core
