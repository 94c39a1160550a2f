#include "core/trace_analysis.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace thermctl::core {

TraceAnalysis analyze_trace(std::span<const double> temps, double sample_dt_s,
                            const TraceAnalysisConfig& config) {
  THERMCTL_ASSERT(sample_dt_s > 0.0, "sample spacing must be positive");
  TraceAnalysis out;
  if (temps.empty()) {
    return out;
  }

  // Per-sample labels from the sliding classifier.
  PhaseClassifier classifier{ClassifierConfig{.sample_dt_s = sample_dt_s}};
  std::vector<ThermalBehaviour> labels(temps.size(), ThermalBehaviour::kStable);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    classifier.add_sample(Celsius{temps[i]});
    labels[i] = classifier.classify().behaviour;
  }

  // Debounce: flip runs shorter than min_segment_samples to the preceding
  // label so brief classifier flicker does not fragment the segmentation.
  std::size_t run_start = 0;
  for (std::size_t i = 1; i <= labels.size(); ++i) {
    if (i == labels.size() || labels[i] != labels[run_start]) {
      if (i - run_start < config.min_segment_samples && run_start > 0) {
        for (std::size_t k = run_start; k < i; ++k) {
          labels[k] = labels[run_start - 1];
        }
      } else {
        run_start = i;
      }
      if (i < labels.size() && labels[i] != labels[run_start]) {
        run_start = i;
      }
    }
  }

  // Build segments from the (debounced) labels.
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= labels.size(); ++i) {
    if (i == labels.size() || labels[i] != labels[begin]) {
      BehaviourSegment seg;
      seg.behaviour = labels[begin];
      seg.begin = begin;
      seg.end = i;
      seg.start_s = static_cast<double>(begin) * sample_dt_s;
      seg.duration_s = static_cast<double>(i - begin) * sample_dt_s;
      seg.temp_begin = temps[begin];
      seg.temp_end = temps[i - 1];
      out.segments.push_back(seg);
      begin = i;
    }
  }

  // Aggregates.
  const double n = static_cast<double>(temps.size());
  for (const BehaviourSegment& seg : out.segments) {
    const double frac = static_cast<double>(seg.end - seg.begin) / n;
    switch (seg.behaviour) {
      case ThermalBehaviour::kStable:
        out.fraction_stable += frac;
        break;
      case ThermalBehaviour::kSudden:
        out.fraction_sudden += frac;
        out.trending_delta_c += seg.temp_end - seg.temp_begin;
        break;
      case ThermalBehaviour::kGradual:
        out.fraction_gradual += frac;
        out.trending_delta_c += seg.temp_end - seg.temp_begin;
        break;
      case ThermalBehaviour::kJitter:
        out.fraction_jitter += frac;
        break;
    }
  }
  return out;
}

std::string render_analysis(const TraceAnalysis& analysis) {
  std::ostringstream out;
  TextTable table{{"segment", "behaviour", "start (s)", "duration (s)", "temp (degC)"}};
  for (std::size_t i = 0; i < analysis.segments.size(); ++i) {
    const BehaviourSegment& seg = analysis.segments[i];
    // Append instead of `"#" + to_string(...)`: the rvalue operator+ hits
    // GCC 12's -Wrestrict false positive (PR 105329) under -Werror.
    std::string label{"#"};
    label += std::to_string(i + 1);
    table.add_row({std::move(label), std::string{to_string(seg.behaviour)},
                   format_number(seg.start_s, 1), format_number(seg.duration_s, 1),
                   format_number(seg.temp_begin, 1) + " -> " +
                       format_number(seg.temp_end, 1)});
  }
  out << table.render();
  out << "time share: stable " << format_number(analysis.fraction_stable * 100.0, 1)
      << "%, sudden " << format_number(analysis.fraction_sudden * 100.0, 1) << "%, gradual "
      << format_number(analysis.fraction_gradual * 100.0, 1) << "%, jitter "
      << format_number(analysis.fraction_jitter * 100.0, 1) << "%\n";
  out << "net trending movement: " << format_number(analysis.trending_delta_c, 1)
      << " degC (types I+II only, per the paper's observation)\n";
  return out.str();
}

}  // namespace thermctl::core
