// Order statistics for benchmark samples.
//
// quartiles() reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method) in the interpolation arithmetic, so a spread
// computed here and one computed by compare.py agree.
//
// tail() is the choosing-metrics rule for a latency tail: the highest
// percentile (capped at p99) that still has at least ten samples beyond it,
// reported together with the sample count it came from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace thermbench {

/// Median of `xs` (mean of the middle pair for an even count). Requires a
/// non-empty sample.
[[nodiscard]] double median(std::vector<double> xs);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(xs, n=4); requires at least two samples.
[[nodiscard]] Quartiles quartiles(std::vector<double> xs);

struct Tail {
  /// The percentile reported, in (0, max_percentile]; 0 when fewer than
  /// eleven samples leave no percentile with ten samples beyond it.
  double percentile = 0.0;
  /// Nearest-rank value at `percentile` (the maximum when percentile is 0).
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly beyond the reported rank.
  std::size_t beyond = 0;
};

/// Highest percentile p <= max_percentile with >= 10 samples beyond it.
/// p is the largest multiple of 0.1 satisfying the rule. Requires a
/// non-empty sample.
[[nodiscard]] Tail tail(std::vector<double> xs, double max_percentile = 99.0);

/// Exact order statistics of integer nanosecond samples in bounded memory:
/// one counter per value below `dense_limit_ns`, the rare larger samples
/// kept verbatim. For step-latency streams of tens of millions of samples.
class NsHistogram {
 public:
  explicit NsHistogram(std::uint64_t dense_limit_ns = 100000);

  void add(std::uint64_t ns);
  /// Adds every sample of `other`, which must have the same dense limit.
  void merge(const NsHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Median in microseconds (mean of the middle pair for an even count).
  [[nodiscard]] double median_us() const;
  /// tail() over the samples, in microseconds.
  [[nodiscard]] Tail tail_us(double max_percentile = 99.0) const;

 private:
  /// The k-th smallest sample (0-based).
  [[nodiscard]] std::uint64_t kth(std::uint64_t k) const;

  std::vector<std::uint32_t> dense_;
  mutable std::vector<std::uint64_t> sparse_;  // sorted lazily by kth()
  std::uint64_t count_ = 0;
};

}  // namespace thermbench
