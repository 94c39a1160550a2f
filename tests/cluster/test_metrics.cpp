#include "cluster/metrics.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.hpp"

namespace thermctl::cluster {
namespace {

RunResult sample_result() {
  MetricsRecorder rec{2};
  for (int i = 0; i < 4; ++i) {
    const double t = 0.25 * i;
    rec.stamp(t);
    rec.sample(t, 0, 40.0 + i, 40.0 + i, 10.0 * i, 1000.0, 2.4, 100.0, 1.0);
    rec.sample(t, 1, 42.0 + i, 42.0 + i, 5.0 * i, 900.0, 2.2, 95.0, 0.8);
  }
  RunResult r = rec.result();
  r.exec_time_s = 219.0;
  r.summaries[0].avg_power_w = 99.78;
  r.summaries[1].avg_power_w = 97.93;
  r.summaries[0].max_die_temp = 43.0;
  r.summaries[1].max_die_temp = 45.0;
  r.summaries[0].freq_transitions = 101;
  r.summaries[1].freq_transitions = 2;
  r.summaries[0].i2c_retries = 3;
  r.summaries[1].i2c_retries = 2;
  r.summaries[0].i2c_bus_faults = 4;
  r.summaries[1].i2c_exhausted = 1;
  return r;
}

// Bit patterns of every recorded value, times first, then node-major.
std::vector<std::uint64_t> series_bits(const RunResult& r) {
  std::vector<std::uint64_t> bits;
  for (double t : r.times) {
    bits.push_back(std::bit_cast<std::uint64_t>(t));
  }
  for (const NodeSeries& n : r.nodes) {
    for (const std::vector<double>* s : {&n.die_temp, &n.sensor_temp, &n.duty, &n.rpm,
                                         &n.freq_ghz, &n.power_w, &n.util, &n.activity}) {
      EXPECT_EQ(s->size(), r.times.size());
      for (double x : *s) {
        bits.push_back(std::bit_cast<std::uint64_t>(x));
      }
    }
  }
  return bits;
}

void record_rows(MetricsRecorder& rec, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    const double t = 0.25 * i;
    rec.stamp(t);
    for (std::size_t n = 0; n < 3; ++n) {
      const double x = 0.1 * i + static_cast<double>(n) / 3.0;
      rec.sample(t, n, 40.0 + x, 40.5 + x, x, 1000.0 + x, 2.4 - x / 100.0, 90.0 + x, x / 10.0,
                 ActivityCode::kCompute);
    }
  }
}

TEST(MetricsRecorder, RepeatedReadsAreBitIdentical) {
  MetricsRecorder rec{3};
  record_rows(rec, 0, 5);
  const RunResult a = rec.result();
  const RunResult b = rec.result();
  EXPECT_EQ(a.times.size(), 5u);
  EXPECT_EQ(series_bits(a), series_bits(b));
}

TEST(MetricsRecorder, RecordingContinuesAfterARead) {
  MetricsRecorder rec{3};
  record_rows(rec, 0, 4);
  const RunResult early = rec.result();
  record_rows(rec, 4, 3);
  const RunResult later = rec.result();
  ASSERT_EQ(later.times.size(), 7u);
  ASSERT_EQ(later.nodes.size(), 3u);
  // The later read holds every row, the early ones unchanged...
  for (std::size_t n = 0; n < 3; ++n) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(later.nodes[n].die_temp[k]),
                std::bit_cast<std::uint64_t>(early.nodes[n].die_temp[k]));
    }
  }
  // ...and matches a recorder that saw the same rows with no read between.
  MetricsRecorder whole{3};
  record_rows(whole, 0, 7);
  EXPECT_EQ(series_bits(later), series_bits(whole.result()));
}

TEST(MetricsRecorder, EmptyRecorderYieldsAlignedEmptySeries) {
  for (const bool reserved : {false, true}) {
    MetricsRecorder rec{4};
    if (reserved) {
      rec.reserve(100);
    }
    const RunResult r = rec.result();
    EXPECT_TRUE(r.times.empty());
    ASSERT_EQ(r.nodes.size(), 4u);
    EXPECT_EQ(r.summaries.size(), 4u);
    for (const NodeSeries& n : r.nodes) {
      EXPECT_TRUE(n.die_temp.empty());
      EXPECT_TRUE(n.activity.empty());
    }
  }
}

TEST(MetricsRecorder, ReadsWithNoRowBetweenShareOneRecord) {
  MetricsRecorder rec{3};
  record_rows(rec, 0, 5);
  const RunResult a = rec.result();
  const RunResult b = rec.result();
  EXPECT_EQ(&a.nodes[0], &b.nodes[0]);
  const RunResult copy = a;
  EXPECT_EQ(&copy.nodes[0], &a.nodes[0]);
  EXPECT_EQ(series_bits(copy), series_bits(a));
}

TEST(MetricsRecorder, RowsAfterAReadLeaveHandedOutResultsUnchanged) {
  // Copies of a result may be read on other threads while the recorder
  // stages and reads more rows: the record they share is never written
  // once it is handed out.
  MetricsRecorder rec{3};
  record_rows(rec, 0, 4);
  const RunResult early = rec.result();
  const std::vector<std::uint64_t> early_bits = series_bits(early);
  std::vector<std::vector<std::uint64_t>> seen(4);
  std::vector<std::thread> readers;
  for (std::vector<std::uint64_t>& slot : seen) {
    readers.emplace_back([copy = early, &slot] { slot = series_bits(copy); });
  }
  record_rows(rec, 4, 3);
  const RunResult later = rec.result();
  for (std::thread& reader : readers) {
    reader.join();
  }
  for (const std::vector<std::uint64_t>& bits : seen) {
    EXPECT_EQ(bits, early_bits);
  }
  EXPECT_NE(&later.nodes[0], &early.nodes[0]);
  EXPECT_EQ(later.nodes[0].die_temp.size(), 7u);
  EXPECT_EQ(early.nodes[0].die_temp.size(), 4u);
  EXPECT_EQ(series_bits(early), early_bits);
}

TEST(MetricsRecorder, ReadsAcrossStagingBlocksMatchPerNodeSeries) {
  // Fleets that end inside, at and just past a staging block, read mid-run
  // and again after more rows, against series built by plain per-node
  // appends. Every value is distinct, so one landing in another node's,
  // field's or row's place shows.
  constexpr std::size_t kB = MetricsRecorder::kBlockNodes;
  for (const std::size_t nodes : {std::size_t{1}, kB - 1, kB, kB + 1, 2 * kB + 3}) {
    SCOPED_TRACE(nodes);
    MetricsRecorder rec{nodes};
    rec.reserve(2);  // the third row and every row after the read grow past it
    RunResult expected;
    std::vector<NodeSeries> reference(nodes);
    auto record = [&](int first, int count) {
      for (int i = first; i < first + count; ++i) {
        const double t = 0.25 * i;
        rec.stamp(t);
        expected.times.push_back(t);
        for (std::size_t n = 0; n < nodes; ++n) {
          const double v = 1e5 * i + 8.0 * static_cast<double>(n);
          const auto activity = static_cast<ActivityCode>((i + static_cast<int>(n)) % 6);
          rec.sample(t, n, v, v + 1, v + 2, v + 3, v + 4, v + 5, v + 6, activity);
          NodeSeries& s = reference[n];
          s.die_temp.push_back(v);
          s.sensor_temp.push_back(v + 1);
          s.duty.push_back(v + 2);
          s.rpm.push_back(v + 3);
          s.freq_ghz.push_back(v + 4);
          s.power_w.push_back(v + 5);
          s.util.push_back(v + 6);
          s.activity.push_back(static_cast<double>(static_cast<int>(activity)));
        }
      }
      expected.nodes = NodeSeriesTable{reference};
    };
    record(0, 3);
    const RunResult early = rec.result();
    const std::vector<std::uint64_t> early_bits = series_bits(early);
    EXPECT_EQ(early_bits, series_bits(expected));
    record(3, 4);
    const RunResult later = rec.result();
    ASSERT_EQ(later.nodes.size(), nodes);
    EXPECT_EQ(series_bits(later), series_bits(expected));
    EXPECT_EQ(series_bits(early), early_bits);
  }
}

TEST(MetricsRecorder, ReserveIsCappedInBytesNotRows) {
  // A 100k-node fleet over a 100000 s horizon at 4 Hz: uncapped, this asks
  // for 320 GB per column and throws std::bad_alloc.
  MetricsRecorder rec{100000};
  EXPECT_NO_THROW(rec.reserve(400002));
}

TEST(Metrics, DefaultResultHasNoNodeSeries) {
  const RunResult r;
  EXPECT_TRUE(r.nodes.empty());
  EXPECT_EQ(r.nodes.size(), 0u);
  EXPECT_EQ(r.nodes.begin(), r.nodes.end());
}

TEST(Metrics, SeriesAlignedWithTimes) {
  const RunResult r = sample_result();
  EXPECT_EQ(r.times.size(), 4u);
  EXPECT_EQ(r.nodes[0].die_temp.size(), 4u);
  EXPECT_EQ(r.nodes[1].duty.size(), 4u);
}

TEST(Metrics, ClusterAverages) {
  const RunResult r = sample_result();
  EXPECT_NEAR(r.avg_power_w(), (99.78 + 97.93) / 2.0, 1e-9);
  EXPECT_NEAR(r.avg_die_temp(), (41.5 + 43.5) / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.max_die_temp(), 45.0);
  EXPECT_EQ(r.total_freq_transitions(), 103u);
}

TEST(Metrics, I2cFaultCountersSumAcrossNodes) {
  const RunResult r = sample_result();
  EXPECT_EQ(r.total_i2c_retries(), 5u);
  EXPECT_EQ(r.total_i2c_bus_faults(), 4u);
  EXPECT_EQ(r.total_i2c_exhausted(), 1u);
}

TEST(Metrics, I2cFaultCountersDefaultToZero) {
  RunResult r;
  r.summaries.resize(2);
  EXPECT_EQ(r.total_i2c_retries(), 0u);
  EXPECT_EQ(r.total_i2c_bus_faults(), 0u);
  EXPECT_EQ(r.total_i2c_exhausted(), 0u);
}

TEST(Metrics, PowerDelayProduct) {
  const RunResult r = sample_result();
  EXPECT_NEAR(r.power_delay_product(), r.avg_power_w() * 219.0, 1e-6);
}

TEST(Metrics, CsvExportShapesCorrectly) {
  const RunResult r = sample_result();
  const std::string path = test_temp_path("die_temp.csv");
  r.write_csv(path, "die_temp");
  std::ifstream in{path};
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,node0_die_temp,node1_die_temp");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "0,40,42");
  int rows = 1;
  while (std::getline(in, row)) {
    ++rows;
  }
  EXPECT_EQ(rows, 4);
  std::remove(path.c_str());
}

TEST(Metrics, CsvExportsEveryField) {
  const RunResult r = sample_result();
  for (const char* field :
       {"die_temp", "sensor_temp", "duty", "rpm", "freq_ghz", "power_w", "util", "activity"}) {
    const std::string path = test_temp_path(std::string{field} + ".csv");
    r.write_csv(path, field);
    std::ifstream in{path};
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find(field), std::string::npos) << field;
    int rows = 0;
    std::string row;
    while (std::getline(in, row)) {
      ++rows;
    }
    EXPECT_EQ(rows, 4) << field;
    std::remove(path.c_str());
  }
}

TEST(Metrics, CsvRejectsUnknownField) {
  const RunResult r = sample_result();
  const std::string path = test_temp_path("bad.csv");
  EXPECT_DEATH(r.write_csv(path, "nonexistent"), "unknown");
  std::remove(path.c_str());
}

TEST(Metrics, EmptyResultAveragesAreZero) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.avg_power_w(), 0.0);
  EXPECT_DOUBLE_EQ(r.avg_die_temp(), 0.0);
  EXPECT_DOUBLE_EQ(r.max_die_temp(), 0.0);
}

}  // namespace
}  // namespace thermctl::cluster
