// Target-mode identification (§3.2.2, last paragraph).
//
// Given the current mode index i and the predicted temperature variation Δt
// from the two-level window, the target index is
//
//   i' = i + c·Δt,   c = (N − 1) / (t_max − t_min)
//
// where [t_min, t_max] bound the safe operating range. If the level-one
// variation Δt_L1 produces no index change, the level-two variation Δt_L2 is
// tried instead — that is how "gradual" trends eventually move the mode even
// when each individual round looks flat.
//
// The product c·Δt is truncated toward zero: sub-cell variations (sensor
// quantization jitter) must not flip modes, which is the window's
// jitter-rejection contract. An optional deadband widens that rejection.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "core/two_level_window.hpp"

namespace thermctl::core {

struct ModeSelectorConfig {
  /// Safe operating band (the paper's platform: 38–82 °C, the static fan
  /// curve's own Tmin/Tmax).
  Celsius tmin{38.0};
  Celsius tmax{82.0};
  /// Variations with |Δt| below this are ignored entirely.
  CelsiusDelta deadband{0.0};

  bool operator==(const ModeSelectorConfig&) const = default;
};

struct ModeDecision {
  std::size_t target = 0;
  bool changed = false;
  bool used_level2 = false;  // the decision came from the gradual predictor
  /// Causality payload for decision tracing; does not affect control flow.
  /// The real-valued i + c·Δt before truncation/clamping, the Δt that
  /// produced `target`, and whether the raw value left [0, N−1].
  double raw_target = 0.0;
  CelsiusDelta delta_used{0.0};
  bool clamped = false;
};

class ModeSelector {
 public:
  ModeSelector(ModeSelectorConfig config, std::size_t array_size);

  /// The constant c = (N−1)/(t_max − t_min).
  [[nodiscard]] double c() const { return c_; }

  /// Applies i + c·Δt for a single Δt; clamps to [0, N−1].
  [[nodiscard]] std::size_t apply(std::size_t current, CelsiusDelta dt) const;

  /// Full §3.2.2 policy: try Δt_L1; if no change, try Δt_L2.
  [[nodiscard]] ModeDecision decide(std::size_t current, const WindowRound& round) const;

 private:
  struct ApplyOutcome {
    std::size_t target = 0;
    double raw = 0.0;  // real-valued i + c·Δt (i itself when Δt is rejected)
    bool clamped = false;
  };
  [[nodiscard]] ApplyOutcome apply_detail(std::size_t current, CelsiusDelta dt) const;

  ModeSelectorConfig config_;
  std::size_t array_size_;
  double c_;
};

}  // namespace thermctl::core
