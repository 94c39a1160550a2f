// Thermal behaviour classifier (§3.1 / Fig. 2).
//
// Labels a sliding window of temperature samples as one of the paper's three
// types (plus "stable"):
//
//   Type I  (sudden):  large sustained rate of change over a short window,
//   Type II (gradual): small but persistent trend over a long window,
//   Type III (jitter): oscillation around a level with no sustained trend.
//
// The classifier is analysis-side (benches, diagnostics); the controller
// itself achieves the same discrimination implicitly through the two-level
// window. Keeping an explicit classifier makes the §3.1 taxonomy testable
// and lets the Fig. 2 bench annotate its profile.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "common/ring_buffer.hpp"
#include "common/units.hpp"

namespace thermctl::core {

enum class ThermalBehaviour {
  kStable,
  kSudden,   // Type I
  kGradual,  // Type II
  kJitter,   // Type III
};

[[nodiscard]] std::string_view to_string(ThermalBehaviour b);

struct ClassifierConfig {
  /// Sample spacing in seconds (4 Hz default).
  double sample_dt_s = 0.25;
};

struct ClassifierReport {
  ThermalBehaviour behaviour = ThermalBehaviour::kStable;
  double trend_c_per_s = 0.0;   // least-squares slope
  double swing_c = 0.0;         // peak-to-peak around the trend line
  double reversal_rate = 0.0;   // sign changes of the derivative per sample
};

class PhaseClassifier {
 public:
  explicit PhaseClassifier(ClassifierConfig config = {});

  /// Adds a sample; classification uses up to the 32 most recent samples
  /// (8 s at 4 Hz).
  void add_sample(Celsius t);

  /// Classifies the current window (needs at least 8 samples; returns
  /// kStable before that).
  [[nodiscard]] ClassifierReport classify() const;

  void reset();

  [[nodiscard]] std::size_t fill() const { return samples_.size(); }

 private:
  ClassifierConfig config_;
  RingBuffer<double> samples_;
};

}  // namespace thermctl::core
