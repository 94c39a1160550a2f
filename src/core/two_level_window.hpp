// The paper's two-level, history-based temperature window (§3.2.1, Fig. 3).
//
// Level one: a small array (default 4 entries) of the most recent raw
// samples. When it fills, the window computes
//
//   Δt_L1 = Σ(second half) − Σ(first half)
//
// — a sum-difference that responds to *sustained* change (Type I "sudden")
// while averaging out single-sample jitter (Type III). The level-one average
// is then pushed into the level-two FIFO (default 5 entries) and the
// level-one array is cleared for the next round.
//
// Level two: the FIFO of round averages tracks coarse-grained history;
//
//   Δt_L2 = rear − front
//
// predicts *gradual* trends (Type II) spanning several rounds.
//
// With the paper's 4 Hz sampling and a 4-entry level-one array, rounds
// complete once per second and the level-two FIFO spans five seconds.
//
// Storage: a window is a plain value. Both levels live inline in fixed
// arrays sized for the largest geometry any caller uses (level one up to
// kMaxLevel1 samples, level two up to kMaxLevel2 rounds), with the sizes
// and counters as bytes, so a controller — standalone or in a ControlBank —
// carries its whole history in one 200 B object with no heap and no
// pointers to chase.
//
// Ownership: a window belongs to whoever feeds it, and so does the sensor
// gate in front of it. The window-driven techniques (dynamic fan, tDVFS,
// idle injection) hold neither: they degrade on the gate's verdict
// (`on_verdict`) and act on the rounds the window closes (`act`).
// `Windowed<T>` is a standalone technique with its own window and gate; a
// UnifiedController owns one of each and hands every verdict and round to
// each of its techniques.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "core/policy.hpp"
#include "core/sensor_health.hpp"

namespace thermctl::core {

struct WindowConfig {
  std::size_t level1_size = 4;  // must be even (split into halves)
  std::size_t level2_size = 5;

  bool operator==(const WindowConfig&) const = default;
};

/// Result of a completed level-one round.
struct WindowRound {
  CelsiusDelta level1_delta{};   // Δt_L1, degrees over half a round
  CelsiusDelta level2_delta{};   // Δt_L2 (zero until the FIFO holds ≥ 2 rounds)
  Celsius level1_average{};      // round average pushed into level two
  bool level2_valid = false;     // FIFO had ≥ 2 entries when Δt_L2 was read
};

class TwoLevelWindow {
 public:
  /// Inline capacity of each level; the constructor rejects larger
  /// geometries.
  static constexpr std::size_t kMaxLevel1 = 16;
  static constexpr std::size_t kMaxLevel2 = 8;

  explicit TwoLevelWindow(WindowConfig config = {});

  /// Adds a sample; returns a WindowRound when this sample completes a
  /// level-one round, otherwise nullopt. Inline so the no-round common case
  /// (all but one sample in level1_size) is a store and a compare at the
  /// caller.
  std::optional<WindowRound> add_sample(Celsius t) {
    level1_[level1_fill_++] = t.value();
    if (level1_fill_ < level1_size_) {
      return std::nullopt;
    }
    return close_round();
  }

  /// Discards all history (e.g. after a controller mode change that makes
  /// old samples unrepresentative).
  void reset();

  [[nodiscard]] WindowConfig config() const { return {level1_size_, level2_size_}; }
  [[nodiscard]] std::size_t level1_fill() const { return level1_fill_; }
  [[nodiscard]] std::size_t level2_fill() const { return level2_count_; }

  /// Front (oldest) and rear (newest) of the level-two FIFO.
  [[nodiscard]] Celsius level2_front() const;
  [[nodiscard]] Celsius level2_rear() const;

 private:
  [[nodiscard]] std::optional<WindowRound> close_round();

  // The sizes and counters lead, so a push at the paper's geometry touches
  // one cache line: the bytes and the first level-one cells.
  std::uint8_t level1_size_;
  std::uint8_t level2_size_;
  std::uint8_t level1_fill_ = 0;
  std::uint8_t level2_head_ = 0;
  std::uint8_t level2_count_ = 0;
  std::array<double, kMaxLevel1> level1_{};  // first level1_size_ cells used
  std::array<double, kMaxLevel2> level2_{};  // FIFO ring over level2_size_ cells
};

/// A window-driven technique that owns its window and the sensor gate in
/// front of it: the standalone form of a technique a UnifiedController
/// otherwise feeds from its one shared window and gate. `Technique`
/// provides begin(now), on_verdict(now, verdict, window), act(now, round),
/// set_policy(pp, window), read_temperature(), config() (its fault_aware
/// and health fields), trace() and kSubsystem.
template <typename Technique>
class Windowed : public Technique {
 public:
  using Technique::Technique;

  /// Controller tick: read this node's sensor and run one sample.
  void on_sample(SimTime now) { on_sample_with(now, Technique::read_temperature()); }

  /// on_sample with the reading supplied by the caller — the ControlBank
  /// batches the hwmon reads across a fleet and feeds each controller its
  /// own node's value. `reading` must equal what hwmon.read_temperature()
  /// would return at this tick; the tick logic is byte-for-byte the same.
  void on_sample_with(SimTime now, Celsius reading) {
    Technique::begin(now);
    const SensorVerdict verdict =
        gate_.admit(now, reading, Technique::trace(), Technique::kSubsystem);
    Technique::on_verdict(now, verdict, window_);
    if (verdict.push) {
      if (const auto round = window_.add_sample(reading)) {
        Technique::act(now, *round);
      }
    }
  }

  /// Re-tunes the policy parameter at runtime; the window's history, taken
  /// under the old fill, is dropped.
  void set_policy(PolicyParam pp) { Technique::set_policy(pp, window_); }

  /// The sampling window (read-only observability).
  [[nodiscard]] const TwoLevelWindow& window() const { return window_; }
  /// The gate's monitor, or nullptr when not fault-aware.
  [[nodiscard]] const SensorHealthMonitor* health() const { return gate_.health(); }

 private:
  TwoLevelWindow window_;
  SensorGate gate_{Technique::config().fault_aware, Technique::config().health};
};

}  // namespace thermctl::core
