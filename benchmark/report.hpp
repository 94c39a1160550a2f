// Metric recording and result output.
//
// The catalogue of metric names and units is BENCHMARK.json alone. A run
// emits every metric it set; run.py checks each name and unit against that
// file and keeps the end-to-end (--trace 0) or per-layer (--trace 1) ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stats.hpp"

namespace thermbench {

/// "p99.0 of 1234 <what>": the percentile a tail value stands for.
[[nodiscard]] std::string tail_note(const Tail& t, const std::string& what);

class Report {
 public:
  /// Records a metric value with its unit.
  void set(const std::string& name, double value, const std::string& unit);
  /// Free-text detail printed next to the metric (sample counts, bases).
  void annotate(const std::string& name, const std::string& text);
  /// The recorded value, or 0 when the metric was not set.
  [[nodiscard]] double get(const std::string& name) const;

  /// Prints every recorded metric by name with its unit, then the result
  /// object as the last line of stdout. A value that is not finite fails
  /// the run.
  [[nodiscard]] bool emit(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> values_;
  std::map<std::string, std::string> notes_;
};

}  // namespace thermbench
