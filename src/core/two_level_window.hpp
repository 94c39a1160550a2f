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
// Storage follows the fleet bind_state pattern: samples, the FIFO cells and
// the three counters default to inline storage but can be rebound onto
// external SoA slots (bind_state) so a ControlBank can keep thousands of
// windows' hot state in contiguous node-major arrays. Behaviour is
// bit-identical either way — the same add_sample code runs on the same
// values, just at a different address.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/units.hpp"

namespace thermctl::core {

struct WindowConfig {
  std::size_t level1_size = 4;  // must be even (split into halves)
  std::size_t level2_size = 5;
};

/// Result of a completed level-one round.
struct WindowRound {
  CelsiusDelta level1_delta{};   // Δt_L1, degrees over half a round
  CelsiusDelta level2_delta{};   // Δt_L2 (zero until the FIFO holds ≥ 2 rounds)
  Celsius level1_average{};      // round average pushed into level two
  bool level2_valid = false;     // FIFO had ≥ 2 entries when Δt_L2 was read
};

/// External storage one window's hot state can be rebound onto — node-major
/// rows/cells of a ControlBank's SoA arrays. `level1` must hold
/// config.level1_size cells and `level2` config.level2_size cells.
struct WindowSlots {
  double* level1 = nullptr;
  double* level2 = nullptr;
  std::size_t* level1_fill = nullptr;
  std::size_t* level2_head = nullptr;
  std::size_t* level2_count = nullptr;
};

class TwoLevelWindow {
 public:
  explicit TwoLevelWindow(WindowConfig config = {});

  // Sample/FIFO storage may be rebound into bank-owned SoA arrays
  // (bind_state), so the window must not be duplicated with pointers into
  // the old storage.
  TwoLevelWindow(const TwoLevelWindow&) = delete;
  TwoLevelWindow& operator=(const TwoLevelWindow&) = delete;

  /// Rebinds all hot state onto external storage (ControlBank SoA slots).
  /// Current contents carry over; the inline cells are released.
  void bind_state(const WindowSlots& slots);

  /// Adds a sample; returns a WindowRound when this sample completes a
  /// level-one round, otherwise nullopt. Inline so the no-round common case
  /// (all but one sample in level1_size) is a store and a compare at the
  /// caller.
  std::optional<WindowRound> add_sample(Celsius t) {
    level1_[(*level1_fill_)++] = t.value();
    if (*level1_fill_ < config_.level1_size) {
      return std::nullopt;
    }
    return close_round();
  }

  /// Discards all history (e.g. after a controller mode change that makes
  /// old samples unrepresentative).
  void reset();

  [[nodiscard]] const WindowConfig& config() const { return config_; }
  [[nodiscard]] std::size_t level1_fill() const { return *level1_fill_; }
  [[nodiscard]] std::size_t level2_fill() const { return *level2_count_; }

  /// Front (oldest) and rear (newest) of the level-two FIFO.
  [[nodiscard]] Celsius level2_front() const;
  [[nodiscard]] Celsius level2_rear() const;

 private:
  [[nodiscard]] std::optional<WindowRound> close_round();

  WindowConfig config_;
  // Hot state defaults to inline storage; bind_state() repoints it into
  // ControlBank SoA slots without changing behaviour.
  std::vector<double> inline_cells_;  // level1_size + level2_size doubles; empty once bound
  std::size_t level1_fill_storage_ = 0;
  std::size_t level2_head_storage_ = 0;
  std::size_t level2_count_storage_ = 0;
  double* level1_ = nullptr;
  double* level2_ = nullptr;
  std::size_t* level1_fill_ = &level1_fill_storage_;
  std::size_t* level2_head_ = &level2_head_storage_;
  std::size_t* level2_count_ = &level2_count_storage_;
};

}  // namespace thermctl::core
