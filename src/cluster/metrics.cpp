#include "cluster/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/csv.hpp"

namespace thermctl::cluster {

namespace {

double average(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

}  // namespace

double RunResult::avg_power_w() const {
  double sum = 0.0;
  for (const NodeSummary& s : summaries) {
    sum += s.avg_power_w;
  }
  return summaries.empty() ? 0.0 : sum / static_cast<double>(summaries.size());
}

double RunResult::avg_die_temp() const {
  double sum = 0.0;
  for (const NodeSeries& n : nodes) {
    sum += average(n.die_temp);
  }
  return nodes.empty() ? 0.0 : sum / static_cast<double>(nodes.size());
}

double RunResult::max_die_temp() const {
  double m = 0.0;
  for (const NodeSummary& s : summaries) {
    m = std::max(m, s.max_die_temp);
  }
  return m;
}

double RunResult::avg_duty() const {
  double sum = 0.0;
  for (const NodeSeries& n : nodes) {
    sum += average(n.duty);
  }
  return nodes.empty() ? 0.0 : sum / static_cast<double>(nodes.size());
}

std::uint64_t RunResult::total_freq_transitions() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.freq_transitions;
  }
  return total;
}

std::uint64_t RunResult::total_i2c_retries() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.i2c_retries;
  }
  return total;
}

std::uint64_t RunResult::total_i2c_bus_faults() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.i2c_bus_faults;
  }
  return total;
}

std::uint64_t RunResult::total_i2c_exhausted() const {
  std::uint64_t total = 0;
  for (const NodeSummary& s : summaries) {
    total += s.i2c_exhausted;
  }
  return total;
}

void RunResult::write_csv(const std::string& path, const std::string& field) const {
  std::vector<std::string> columns{"time_s"};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    columns.push_back("node" + std::to_string(i) + "_" + field);
  }
  CsvWriter csv{path, std::move(columns)};

  auto series_of = [&](const NodeSeries& n) -> const std::vector<double>& {
    if (field == "die_temp") return n.die_temp;
    if (field == "sensor_temp") return n.sensor_temp;
    if (field == "duty") return n.duty;
    if (field == "rpm") return n.rpm;
    if (field == "freq_ghz") return n.freq_ghz;
    if (field == "power_w") return n.power_w;
    if (field == "util") return n.util;
    if (field == "activity") return n.activity;
    THERMCTL_ASSERT(false, "unknown series field");
    return n.die_temp;  // unreachable
  };

  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<double> values;
    values.reserve(nodes.size() + 1);
    values.push_back(times[i]);
    for (const NodeSeries& n : nodes) {
      const auto& s = series_of(n);
      values.push_back(i < s.size() ? s[i] : 0.0);
    }
    csv.row(values);
  }
}

MetricsRecorder::MetricsRecorder(std::size_t node_count) : node_count_(node_count) {
  blocks_.reserve((node_count + kBlockNodes - 1) / kBlockNodes);
  for (std::size_t first = 0; first < node_count; first += kBlockNodes) {
    blocks_.push_back(
        Block{.first = first, .width = std::min(kBlockNodes, node_count - first), .cols = {}});
  }
}

void MetricsRecorder::stamp(double t_seconds) { times_.push_back(t_seconds); }

void MetricsRecorder::reserve(std::size_t samples) {
  const std::size_t row_bytes = std::max<std::size_t>(1, node_count_) * sizeof(double);
  const std::size_t rows = std::min(samples, kReserveBytesPerColumn / row_bytes);
  times_.reserve(rows);
  for (Block& block : blocks_) {
    for (std::vector<double>& col : block.cols) {
      col.reserve(rows * block.width);
    }
  }
}

void MetricsRecorder::sample(double t_seconds, std::size_t node, double die, double sensor,
                             double duty, double rpm, double freq_ghz, double power_w,
                             double util, ActivityCode activity) {
  (void)t_seconds;
  // The columnar staging assumes whole fleet rows in node order — exactly
  // what the engine's recording loop produces.
  THERMCTL_ASSERT(node == next_node_, "samples must arrive node-major (0..N-1 per round)");
  next_node_ = (next_node_ + 1 == node_count_) ? 0 : next_node_ + 1;
  std::array<std::vector<double>, kFieldCount>& cols = blocks_[node / kBlockNodes].cols;
  cols[0].push_back(die);
  cols[1].push_back(sensor);
  cols[2].push_back(duty);
  cols[3].push_back(rpm);
  cols[4].push_back(freq_ghz);
  cols[5].push_back(power_w);
  cols[6].push_back(util);
  cols[7].push_back(static_cast<double>(static_cast<int>(activity)));
}

RunResult MetricsRecorder::result() {
  RunResult result;
  result.times = times_;
  result.summaries.resize(node_count_);
  if (node_count_ == 0) {
    return result;
  }
  THERMCTL_ASSERT(next_node_ == 0, "result read mid-row");
  flush();
  result.nodes = NodeSeriesTable{record_};
  return result;
}

void MetricsRecorder::flush() {
  const std::size_t staged = blocks_[0].cols[0].size() / blocks_[0].width;
  if (record_ != nullptr && staged == 0) {
    return;
  }
  const std::size_t kept = record_ == nullptr ? 0 : (*record_)[0].die_temp.size();
  // Never written in place: a result handed out earlier may share record_.
  auto next = std::make_shared<std::vector<NodeSeries>>(node_count_);

  static constexpr std::vector<double> NodeSeries::*kFields[] = {
      &NodeSeries::die_temp, &NodeSeries::sensor_temp, &NodeSeries::duty,
      &NodeSeries::rpm,      &NodeSeries::freq_ghz,    &NodeSeries::power_w,
      &NodeSeries::util,     &NodeSeries::activity,
  };

  // Block by block and one field at a time, so at most one block's column is
  // ever held twice. Blocked transpose: a tile of destination series stays
  // cache-resident across all rows while the column is read in contiguous
  // row spans, so the scatter cost is paid once per element.
  constexpr std::size_t kTile = 128;
  for (Block& block : blocks_) {
    const std::size_t width = block.width;
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      const auto field = kFields[f];
      const double* col = block.cols[f].data();
      for (std::size_t t0 = 0; t0 < width; t0 += kTile) {
        const std::size_t t1 = std::min(width, t0 + kTile);
        for (std::size_t i = t0; i < t1; ++i) {
          std::vector<double>& series = (*next)[block.first + i].*field;
          series.reserve(kept + staged);
          if (kept != 0) {
            const std::vector<double>& old = (*record_)[block.first + i].*field;
            series.assign(old.begin(), old.end());
          }
        }
        for (std::size_t r = 0; r < staged; ++r) {
          const double* row = col + r * width;
          for (std::size_t i = t0; i < t1; ++i) {
            ((*next)[block.first + i].*field).push_back(row[i]);
          }
        }
      }
      std::vector<double>().swap(block.cols[f]);
    }
  }
  record_ = std::move(next);
}

}  // namespace thermctl::cluster
