// Experiment metrics: recorded series and run summaries.
//
// The engine samples every node at a fixed period (default 250 ms, matching
// the paper's plots, whose x axes are "sample points" at 4 Hz). A RunResult
// carries everything a bench needs to print its table/figure series and is
// cheap to copy around: its per-node series are shared, not copied.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

/// Every node's recorded series: a read-only table over one shared block.
/// Copies share the block, so a result costs its series once however many
/// copies of it are passed around. To change a series, build a new
/// std::vector<NodeSeries> and wrap it.
class NodeSeriesTable {
 public:
  NodeSeriesTable() = default;
  explicit NodeSeriesTable(std::vector<NodeSeries> nodes)
      : NodeSeriesTable(std::make_shared<const std::vector<NodeSeries>>(std::move(nodes))) {}
  explicit NodeSeriesTable(std::shared_ptr<const std::vector<NodeSeries>> nodes)
      : nodes_(std::move(nodes)) {}

  [[nodiscard]] std::size_t size() const { return nodes_ == nullptr ? 0 : nodes_->size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  const NodeSeries& operator[](std::size_t i) const { return (*nodes_)[i]; }
  [[nodiscard]] const NodeSeries* begin() const {
    return nodes_ == nullptr ? nullptr : nodes_->data();
  }
  [[nodiscard]] const NodeSeries* end() const { return begin() + size(); }

 private:
  std::shared_ptr<const std::vector<NodeSeries>> nodes_;
};

struct RunResult {
  std::vector<double> times;  // seconds, shared by all node series
  NodeSeriesTable nodes;
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
/// Hot-path layout: samples are staged column-major in fixed blocks of
/// kBlockNodes nodes — each block holds eight flat arrays, one per recorded
/// field, appended a block-row at a time — because the recording loop visits
/// every node each round. Appending into per-node series here would touch
/// 8 x node_count scattered heap buffers per round (at 100k nodes that is
/// ~800k cache misses every record tick, and it shows up as ~30% of a
/// fleet-ladder run).
///
/// A read moves the staged rows into the per-node record that everything
/// downstream consumes, block by block and one field at a time, by a blocked
/// transpose — same values, same order, bit-identical output — releasing
/// each block's column as soon as its field is moved. So the read holds at
/// most one block's column twice, never a fleet-wide one. Every RunResult
/// handed out shares that record, so a run holds one copy of its samples
/// once it is read. The record is copy-on-write: rows staged after a read go
/// into a fresh record that clones the old rows first, so a result already
/// handed out never changes.
class MetricsRecorder {
 public:
  /// Nodes per staging block (the last block holds the remainder).
  static constexpr std::size_t kBlockNodes = 1024;

  explicit MetricsRecorder(std::size_t node_count);

  void sample(double t_seconds, std::size_t node, double die, double sensor, double duty,
              double rpm, double freq_ghz, double power_w, double util,
              ActivityCode activity = ActivityCode::kNone);
  /// Appends the shared timestamp (once per sampling round).
  void stamp(double t_seconds);

  /// Pre-sizes the staging columns for `samples` sampling rounds so recording
  /// never reallocates mid-run, up to kReserveBytesPerColumn per field
  /// (summed over the blocks) so a long horizon on a large fleet cannot ask
  /// for more memory up front than a host has. A hint: recording past it
  /// still works.
  void reserve(std::size_t samples);

  /// Every row recorded so far as per-node series, with one default summary
  /// per node. Reading does not consume: recording may continue, and the
  /// next read holds every row again. Reads with no row between them share
  /// one record.
  [[nodiscard]] RunResult result();

 private:
  static constexpr std::size_t kFieldCount = 8;
  static constexpr std::size_t kReserveBytesPerColumn = std::size_t{64} << 20;

  /// Rows staged since the last read for nodes [first, first + width).
  struct Block {
    std::size_t first = 0;
    std::size_t width = 0;
    std::array<std::vector<double>, kFieldCount> cols;
  };

  /// Moves the staged rows into record_ (allocating it at the first read,
  /// cloning it if a result already holds it).
  void flush();

  std::size_t node_count_ = 0;
  std::size_t next_node_ = 0;  // enforced node-major arrival order
  std::vector<double> times_;
  std::vector<Block> blocks_;  // rows staged since the last read, ceil(N / kBlockNodes)
  std::shared_ptr<const std::vector<NodeSeries>> record_;  // rows read so far
};

}  // namespace thermctl::cluster
