// Offline thermal-trace analysis: the §3.1 behaviour taxonomy as a tool.
//
// Segments a recorded temperature series into contiguous regions of one
// behaviour type (sudden / gradual / jitter / stable) by sliding the
// PhaseClassifier across it, then merges neighbouring windows with the same
// label. The Fig. 2 bench uses this to annotate its profile; downstream
// users get the same capability over their own recorded runs (e.g. deciding
// whether a workload leaves any headroom for proactive control).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/phase_classifier.hpp"

namespace thermctl::core {

struct BehaviourSegment {
  ThermalBehaviour behaviour = ThermalBehaviour::kStable;
  std::size_t begin = 0;  // sample index, inclusive
  std::size_t end = 0;    // sample index, exclusive
  double start_s = 0.0;
  double duration_s = 0.0;
  double temp_begin = 0.0;
  double temp_end = 0.0;
};

struct TraceAnalysis {
  std::vector<BehaviourSegment> segments;
  /// Fraction of samples per behaviour (indexed by ThermalBehaviour).
  double fraction_stable = 0.0;
  double fraction_sudden = 0.0;
  double fraction_gradual = 0.0;
  double fraction_jitter = 0.0;
  /// Net temperature movement attributable to sudden+gradual segments —
  /// §3.1's observation that only Types I and II change temperature.
  double trending_delta_c = 0.0;
};

struct TraceAnalysisConfig {
  /// Segments shorter than this are merged into their neighbour (debounce).
  std::size_t min_segment_samples = 8;
};

/// Analyzes a temperature series sampled at `sample_dt_s` spacing.
[[nodiscard]] TraceAnalysis analyze_trace(std::span<const double> temps, double sample_dt_s,
                                          const TraceAnalysisConfig& config = {});

/// Human-readable segment table.
[[nodiscard]] std::string render_analysis(const TraceAnalysis& analysis);

}  // namespace thermctl::core
