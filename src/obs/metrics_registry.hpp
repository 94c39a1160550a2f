// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// Design goals, in order:
//
//   1. Lock-free hot path. Registration (name lookup) takes a mutex and
//      happens at wiring time; the returned Counter/Gauge/Histogram handles
//      are plain objects with stable addresses, and updating one is an
//      ordinary non-atomic store — no lock, no atomic RMW. The concurrency
//      model is sharding, not synchronization: each worker/job updates only
//      its own shard.
//
//   2. Deterministic merge. A registry is a fixed-size array of shards
//      indexed by job (not by whichever thread happened to pick the job up),
//      and merged() folds shards in ascending index order — so a parallel
//      sweep's merged telemetry is bit-identical to the serial run's.
//      Counters and histogram buckets merge by sum (order-independent over
//      integers); gauges merge by "last shard that set it wins", which under
//      index-ordered folding is again deterministic.
//
//   3. Zero cost when absent. Everything takes the registry by pointer and
//      tolerates nullptr; a disabled run never touches this code.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace thermctl::obs {

/// Monotonic event count. Non-atomic by design: one shard, one writer.
class Counter {
 public:
  void add(std::uint64_t n) { value_ += n; }
  void inc() { ++value_; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value (e.g. steps/sec, final sim time).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    set_ = true;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool is_set() const { return set_; }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// Fixed-bucket histogram: bounds are upper edges of the finite buckets, a
/// final overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
  [[nodiscard]] std::uint64_t total_count() const { return total_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// One writer's private slice of the registry. Handles returned here stay
/// valid for the registry's lifetime.
class MetricsShard {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Re-registering an existing histogram name requires identical bounds.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);

 private:
  friend class MetricsRegistry;
  // std::map keeps snapshot iteration name-ordered; unique_ptr keeps handle
  // addresses stable across registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::mutex mutex_;  // guards registration only, never updates
};

/// Point-in-time merged view, cheap to copy and to serialize.
struct MetricsSnapshot {
  struct HistogramValue {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    double sum = 0.0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramValue> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Folds `other` in: counters/histograms sum, gauges overwrite. Callers
  /// merging many snapshots must fold in a stable order (sweep point order)
  /// for gauge determinism.
  void merge(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  /// `shards` is the writer count (sweep points, worker jobs, ...). One
  /// shard is the common single-run case.
  explicit MetricsRegistry(std::size_t shards = 1);

  [[nodiscard]] MetricsShard& shard(std::size_t index);

  /// Convenience for the single-writer case: shard 0.
  Counter& counter(const std::string& name) { return shard(0).counter(name); }
  Gauge& gauge(const std::string& name) { return shard(0).gauge(name); }
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds) {
    return shard(0).histogram(name, std::move(upper_bounds));
  }

  /// Deterministic fold of all shards, ascending shard index.
  [[nodiscard]] MetricsSnapshot merged() const;

 private:
  std::vector<std::unique_ptr<MetricsShard>> shards_;
};

}  // namespace thermctl::obs
