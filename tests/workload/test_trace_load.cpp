#include "workload/trace_load.hpp"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "temp_path.hpp"

namespace thermctl::workload {
namespace {

TraceLoad three_point(TraceLoadOptions options = {}) {
  return TraceLoad{{{0.0, 0.1}, {10.0, 0.9}, {20.0, 0.5}}, options};
}

TEST(TraceLoad, StepHoldSemantics) {
  const TraceLoad load = three_point();
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(0.0)).fraction(), 0.1);
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(5.0)).fraction(), 0.1);
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(10.0)).fraction(), 0.9);
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(15.0)).fraction(), 0.9);
}

TEST(TraceLoad, LinearInterpolation) {
  TraceLoadOptions opts;
  opts.interpolate = true;
  const TraceLoad load = three_point(opts);
  EXPECT_NEAR(load.at(SimTime::from_seconds(5.0)).fraction(), 0.5, 1e-9);
  EXPECT_NEAR(load.at(SimTime::from_seconds(15.0)).fraction(), 0.7, 1e-9);
}

TEST(TraceLoad, PastEndIdlesUnlessLooping) {
  const TraceLoad load = three_point();
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(25.0)).fraction(), 0.0);
  EXPECT_TRUE(load.done(SimTime::from_seconds(20.0)));

  TraceLoadOptions opts;
  opts.loop = true;
  const TraceLoad looped = three_point(opts);
  EXPECT_FALSE(looped.done(SimTime::from_seconds(100.0)));
  // 25 s wraps to 5 s into the trace.
  EXPECT_DOUBLE_EQ(looped.at(SimTime::from_seconds(25.0)).fraction(), 0.1);
}

TEST(TraceLoad, DurationAndCount) {
  const TraceLoad load = three_point();
  EXPECT_DOUBLE_EQ(load.duration().value(), 20.0);
  EXPECT_EQ(load.sample_count(), 3u);
}

class TraceCsv : public ::testing::Test {
 protected:
  std::string path_ = test_temp_path("trace.csv");
  void write(const std::string& contents) {
    std::ofstream out{path_};
    out << contents;
  }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceCsv, ParsesHeaderCommentsAndRows) {
  write("time_s,utilization\n# exported from prometheus\n0,0.2\n5,0.8\n10,0.4\n");
  const TraceLoad load = TraceLoad::from_csv(path_);
  EXPECT_EQ(load.sample_count(), 3u);
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(6.0)).fraction(), 0.8);
}

TEST_F(TraceCsv, ClampsUtilizationToUnit) {
  write("0,1.7\n5,-0.3\n");
  const TraceLoad load = TraceLoad::from_csv(path_);
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(0.0)).fraction(), 1.0);
  EXPECT_DOUBLE_EQ(load.at(SimTime::from_seconds(5.0)).fraction(), 0.0);
}

TEST_F(TraceCsv, ThrowsOnMissingFile) {
  EXPECT_THROW(TraceLoad::from_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST_F(TraceCsv, ThrowsOnGarbageRow) {
  write("0,0.5\nnot,a,number\n");
  EXPECT_THROW(TraceLoad::from_csv(path_), std::runtime_error);
}

TEST_F(TraceCsv, ThrowsOnEmptyFile) {
  write("# only comments\n");
  EXPECT_THROW(TraceLoad::from_csv(path_), std::runtime_error);
}

TEST(TraceLoadDeath, RejectsUnorderedTimes) {
  EXPECT_DEATH(TraceLoad({{5.0, 0.1}, {5.0, 0.2}}), "increasing");
}

TEST(TraceLoadDeath, RejectsEmpty) {
  EXPECT_DEATH(TraceLoad{std::vector<TraceSample>{}}, "sample");
}

}  // namespace
}  // namespace thermctl::workload
