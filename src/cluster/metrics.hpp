// Experiment metrics: recorded series and run summaries.
//
// The engine samples every node at a fixed period (default 250 ms, matching
// the paper's plots, whose x axes are "sample points" at 4 Hz). A RunResult
// carries everything a bench needs to print its table/figure series and is
// cheap to copy around.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace thermctl::cluster {

/// Program-activity codes recorded per sample when an app rank runs on the
/// node (Tempest-style attribution input). Matches workload::PhaseKind plus
/// sentinels for "no rank here" and "rank finished".
enum class ActivityCode : int {
  kNone = 0,      // no app rank mapped to this node
  kCompute = 1,
  kCommunicate = 2,
  kIdlePhase = 3,
  kBarrier = 4,
  kFinished = 5,
};

/// One node's recorded series, index-aligned with RunResult::times.
struct NodeSeries {
  std::vector<double> die_temp;     // true die temperature, °C
  std::vector<double> sensor_temp;  // what the controller saw, °C
  std::vector<double> duty;         // fan PWM duty, %
  std::vector<double> rpm;          // fan speed
  std::vector<double> freq_ghz;     // OS-selected CPU frequency
  std::vector<double> power_w;      // wall power (meter reading)
  std::vector<double> util;         // workload utilization fraction
  std::vector<double> activity;     // ActivityCode as double (CSV-friendly)
};

/// Per-node aggregates computed at the end of a run.
struct NodeSummary {
  double avg_die_temp = 0.0;
  double max_die_temp = 0.0;
  double avg_duty = 0.0;
  double avg_power_w = 0.0;     // meter average (energy / time)
  double energy_j = 0.0;        // meter energy integral
  std::uint64_t freq_transitions = 0;
  int prochot_events = 0;
  double prochot_seconds = 0.0;
  double seconds_above_threshold = 0.0;  // die time above the run's threshold
  // Fault-event counters from the node's fan-driver i2c path (all zero on a
  // clean run).
  std::uint64_t i2c_retries = 0;
  std::uint64_t i2c_naks = 0;        // address NAKs seen (attempt outcomes)
  std::uint64_t i2c_bus_faults = 0;  // bus-fault attempt outcomes
  std::uint64_t i2c_exhausted = 0;   // transfers that failed after all retries
};

struct RunResult {
  std::vector<double> times;  // seconds, shared by all node series
  std::vector<NodeSeries> nodes;
  std::vector<NodeSummary> summaries;

  bool app_completed = false;
  double exec_time_s = 0.0;  // app completion time (or horizon if it ran out)

  /// Cluster averages across nodes.
  [[nodiscard]] double avg_power_w() const;
  [[nodiscard]] double avg_die_temp() const;
  [[nodiscard]] double max_die_temp() const;
  [[nodiscard]] double avg_duty() const;
  [[nodiscard]] std::uint64_t total_freq_transitions() const;

  /// Cluster totals of the per-node i2c fault counters.
  [[nodiscard]] std::uint64_t total_i2c_retries() const;
  [[nodiscard]] std::uint64_t total_i2c_bus_faults() const;
  [[nodiscard]] std::uint64_t total_i2c_exhausted() const;

  /// Power-delay product, the paper's combined metric (Table 1): average
  /// per-node wall power × execution time.
  [[nodiscard]] double power_delay_product() const { return avg_power_w() * exec_time_s; }

  /// Writes `times` plus the chosen per-node field for all nodes as CSV.
  void write_csv(const std::string& path, const std::string& field) const;
};

/// Accumulates samples during a run; the engine owns one.
///
/// Hot-path layout: samples are staged column-major — eight flat arrays, one
/// per recorded field, appended a fleet-row at a time — because the recording
/// loop visits every node each round. Appending into per-node series here
/// would touch 8 x node_count scattered heap buffers per round (at 100k
/// nodes that is ~800k cache misses every record tick, and it shows up as
/// ~30% of a fleet-ladder run). The columns plus `times` are the only record:
/// result() builds the per-node `RunResult::nodes` shape that everything
/// downstream consumes by a blocked transpose into a fresh RunResult — same
/// values, same order, bit-identical output — so a run holds at most two
/// copies of its samples, the columns and the one result handed out.
class MetricsRecorder {
 public:
  explicit MetricsRecorder(std::size_t node_count);

  void sample(double t_seconds, std::size_t node, double die, double sensor, double duty,
              double rpm, double freq_ghz, double power_w, double util,
              ActivityCode activity = ActivityCode::kNone);
  /// Appends the shared timestamp (once per sampling round).
  void stamp(double t_seconds);

  /// Pre-sizes the staging columns for `samples` sampling rounds so recording
  /// never reallocates mid-run. A hint: recording past it still works.
  void reserve(std::size_t samples);

  /// Every row recorded so far, transposed into per-node series, with one
  /// default summary per node. Reading does not consume: recording may
  /// continue, and the next read holds every row again.
  [[nodiscard]] RunResult result() const;

 private:
  static constexpr std::size_t kFieldCount = 8;

  std::size_t node_count_ = 0;
  std::size_t next_node_ = 0;  // enforced node-major arrival order
  std::vector<double> times_;
  std::array<std::vector<double>, kFieldCount> cols_;
};

}  // namespace thermctl::cluster
