#include "core/phase_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.hpp"

namespace thermctl::core {

namespace {

/// |slope| above this is "sudden" (°C/s).
constexpr double kSuddenRate = 0.35;
/// |slope| above this (but below sudden) with a consistent sign is
/// "gradual" (°C/s).
constexpr double kGradualRate = 0.04;
/// Peak-to-peak swing above this with no trend is "jitter" (°C).
constexpr double kJitterSwing = 0.8;
/// Samples held for analysis (32 = 8 s at 4 Hz).
constexpr std::size_t kWindow = 32;

}  // namespace

std::string_view to_string(ThermalBehaviour b) {
  switch (b) {
    case ThermalBehaviour::kStable:
      return "stable";
    case ThermalBehaviour::kSudden:
      return "sudden";
    case ThermalBehaviour::kGradual:
      return "gradual";
    case ThermalBehaviour::kJitter:
      return "jitter";
  }
  return "?";
}

PhaseClassifier::PhaseClassifier(ClassifierConfig config)
    : config_(config), samples_(kWindow) {}

void PhaseClassifier::add_sample(Celsius t) { samples_.push(t.value()); }

void PhaseClassifier::reset() { samples_.clear(); }

ClassifierReport PhaseClassifier::classify() const {
  ClassifierReport report;
  const std::size_t n = samples_.size();
  if (n < 8) {
    return report;
  }

  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = samples_.at(i);
  }

  // Least-squares trend in °C/s.
  report.trend_c_per_s = slope(xs, config_.sample_dt_s);

  // Detrended peak-to-peak swing.
  double min_r = 1e30;
  double max_r = -1e30;
  const double mean_x = static_cast<double>(n - 1) / 2.0;
  double mean_y = 0.0;
  for (double v : xs) {
    mean_y += v;
  }
  mean_y /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double fitted =
        mean_y + report.trend_c_per_s * config_.sample_dt_s * (static_cast<double>(i) - mean_x);
    const double r = xs[i] - fitted;
    min_r = std::min(min_r, r);
    max_r = std::max(max_r, r);
  }
  report.swing_c = max_r - min_r;

  // Derivative sign reversals per sample (jitter signature).
  std::size_t reversals = 0;
  std::size_t moves = 0;
  double prev_sign = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double d = xs[i] - xs[i - 1];
    if (std::abs(d) < 1e-9) {
      continue;
    }
    const double sign = d > 0.0 ? 1.0 : -1.0;
    if (prev_sign != 0.0 && sign != prev_sign) {
      ++reversals;
    }
    prev_sign = sign;
    ++moves;
  }
  report.reversal_rate =
      moves > 1 ? static_cast<double>(reversals) / static_cast<double>(moves - 1) : 0.0;

  const double rate = std::abs(report.trend_c_per_s);
  const double window_span_s = static_cast<double>(n - 1) * config_.sample_dt_s;
  // Jitter is judged before "gradual": a large oscillation dominates a small
  // residual trend (the trend's total contribution over the window must be
  // smaller than the swing itself, or the trend is the real story).
  const bool oscillation_dominates =
      report.swing_c >= kJitterSwing && report.reversal_rate >= 0.25 &&
      rate * window_span_s < report.swing_c;
  if (rate >= kSuddenRate) {
    report.behaviour = ThermalBehaviour::kSudden;
  } else if (oscillation_dominates) {
    report.behaviour = ThermalBehaviour::kJitter;
  } else if (rate >= kGradualRate) {
    report.behaviour = ThermalBehaviour::kGradual;
  } else {
    report.behaviour = ThermalBehaviour::kStable;
  }
  return report;
}

}  // namespace thermctl::core
