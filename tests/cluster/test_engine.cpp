#include "cluster/engine.hpp"

#include <gtest/gtest.h>

#include "workload/synthetic.hpp"

namespace thermctl::cluster {
namespace {

NodeParams quiet() {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.0;
  return p;
}

EngineConfig short_run(double horizon) {
  EngineConfig c;
  c.horizon = Seconds{horizon};
  return c;
}

TEST(Engine, StopsAtHorizonWithoutApp) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(5.0)};
  const RunResult result = engine.run();
  EXPECT_FALSE(result.app_completed);
  EXPECT_NEAR(result.exec_time_s, 5.0, 0.1);
  // 4 Hz recording for 5 s plus the t=0 sample.
  EXPECT_NEAR(static_cast<double>(result.times.size()), 21.0, 1.0);
}

TEST(Engine, AppCompletionSetsExecTime) {
  Cluster cluster{2, quiet()};
  Engine engine{cluster, short_run(60.0)};
  std::vector<workload::Program> progs(2, workload::Program{workload::compute_phase(4.8)});
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0, 1});
  const RunResult result = engine.run();
  EXPECT_TRUE(result.app_completed);
  EXPECT_NEAR(result.exec_time_s, 2.0, 0.1);
}

TEST(Engine, AppUtilizationDrivesNodes) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(30.0)};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(24.0)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0});
  const RunResult result = engine.run();
  // During the 10 s of compute the node ran at full utilization.
  double max_util = 0.0;
  for (double u : result.nodes[0].util) {
    max_util = std::max(max_util, u);
  }
  EXPECT_NEAR(max_util, 1.0, 0.01);
}

TEST(Engine, SegmentLoadDrivesNode) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(10.0)};
  const auto load = workload::gradual_profile(Seconds{100.0}, 0.8);
  engine.set_node_load(0, &load);
  const RunResult result = engine.run();
  EXPECT_NEAR(result.nodes[0].util.back(), 0.8, 0.01);
}

TEST(Engine, PeriodicTaskFiresAtRate) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(10.0)};
  int fired = 0;
  engine.add_periodic(Seconds{1.0}, [&fired](SimTime) { ++fired; });
  engine.run();
  EXPECT_NEAR(static_cast<double>(fired), 10.0, 1.0);
}

TEST(Engine, TasksSeeFreshSensorSamples) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(2.0)};
  bool saw_reading = false;
  engine.add_periodic(Seconds{0.25}, [&](SimTime) {
    const double v = cluster.node(0).sensor_reading().value();
    if (v > 20.0) {
      saw_reading = true;
    }
  });
  engine.run();
  EXPECT_TRUE(saw_reading);
}

TEST(Engine, RecordsAllSeriesFields) {
  Cluster cluster{2, quiet()};
  Engine engine{cluster, short_run(3.0)};
  const RunResult result = engine.run();
  ASSERT_EQ(result.nodes.size(), 2u);
  for (const NodeSeries& n : result.nodes) {
    EXPECT_EQ(n.die_temp.size(), result.times.size());
    EXPECT_EQ(n.duty.size(), result.times.size());
    EXPECT_EQ(n.freq_ghz.size(), result.times.size());
    EXPECT_EQ(n.power_w.size(), result.times.size());
  }
}

TEST(Engine, SummariesPopulated) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(5.0)};
  const auto load = workload::gradual_profile(Seconds{100.0});
  engine.set_node_load(0, &load);
  const RunResult result = engine.run();
  const NodeSummary& s = result.summaries[0];
  EXPECT_GT(s.avg_die_temp, 25.0);
  EXPECT_GE(s.max_die_temp, s.avg_die_temp);
  EXPECT_GT(s.avg_power_w, 50.0);
  EXPECT_GT(s.energy_j, 100.0);
}

TEST(Engine, CooldownExtendsRunPastCompletion) {
  Cluster cluster{1, quiet()};
  EngineConfig cfg = short_run(60.0);
  cfg.cooldown = Seconds{5.0};
  Engine engine{cluster, cfg};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(2.4)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0});
  const RunResult result = engine.run();
  EXPECT_TRUE(result.app_completed);
  EXPECT_NEAR(result.exec_time_s, 1.0, 0.1);
  EXPECT_GT(result.times.back(), 5.5);  // kept recording through cooldown
}

TEST(Engine, FleetLoadFnDrivesWholeRow) {
  Cluster cluster{3, quiet()};
  Engine engine{cluster, short_run(4.0)};
  engine.set_fleet_load_fn([](SimTime, double* util, const std::uint8_t* halted,
                              std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      util[i] = halted[i] != 0 ? 0.0 : 0.2 + 0.1 * static_cast<double>(i);
    }
  });
  const RunResult result = engine.run();
  ASSERT_EQ(result.nodes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(result.nodes[i].util.back(), 0.2 + 0.1 * static_cast<double>(i), 1e-12);
  }
}

TEST(Engine, PerNodeLoadOverridesFleetLoad) {
  Cluster cluster{3, quiet()};
  Engine engine{cluster, short_run(4.0)};
  engine.set_fleet_load_fn([](SimTime, double* util, const std::uint8_t* halted,
                              std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      util[i] = halted[i] != 0 ? 0.0 : 0.3;
    }
  });
  const auto high = workload::gradual_profile(Seconds{100.0}, 0.9);
  const auto mid = workload::gradual_profile(Seconds{100.0}, 0.6);
  engine.set_node_load(2, &mid);
  engine.set_node_load(1, &mid);
  engine.set_node_load(1, &high);  // replaces node 1's load
  engine.set_node_load(2, static_cast<const workload::SegmentLoad*>(nullptr));  // clears it
  const RunResult result = engine.run();
  EXPECT_NEAR(result.nodes[0].util.back(), 0.3, 1e-12);
  EXPECT_NEAR(result.nodes[1].util.back(), 0.9, 1e-12);
  EXPECT_NEAR(result.nodes[2].util.back(), 0.3, 1e-12);
}

TEST(Engine, ExitedRanksIdleUnlessTheyHaveALoad) {
  Cluster cluster{2, quiet()};
  EngineConfig cfg = short_run(60.0);
  cfg.cooldown = Seconds{3.0};
  Engine engine{cluster, cfg};
  std::vector<workload::Program> progs(2, workload::Program{workload::compute_phase(2.4)});
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0, 1});
  const auto load = workload::gradual_profile(Seconds{100.0}, 0.6);
  engine.set_node_load(1, &load);
  const RunResult result = engine.run();
  ASSERT_TRUE(result.app_completed);
  EXPECT_NEAR(result.nodes[0].util.back(), 0.02, 1e-12);
  EXPECT_NEAR(result.nodes[1].util.back(), 0.6, 1e-12);
}

TEST(Engine, RepeatedRunsAppendToRecordedSeries) {
  // Two runs on one engine keep appending to the same recorder: the second
  // result holds every row staged so far, and the first result, which
  // shared the recorder's record, keeps exactly the rows it was handed.
  Cluster cluster{2, quiet()};
  Engine engine{cluster, short_run(2.0)};
  const RunResult first = engine.run();
  const std::size_t first_rows = first.times.size();
  const RunResult again = engine.run();
  EXPECT_GT(again.times.size(), first_rows);
  for (const NodeSeries& n : again.nodes) {
    EXPECT_EQ(n.die_temp.size(), again.times.size());
    EXPECT_EQ(n.util.size(), again.times.size());
  }
  for (const NodeSeries& n : first.nodes) {
    EXPECT_EQ(n.die_temp.size(), first_rows);
    EXPECT_EQ(n.util.size(), first_rows);
  }
}

TEST(EngineDeath, TwoRanksOneNodeAborts) {
  Cluster cluster{1, quiet()};
  Engine engine{cluster, short_run(1.0)};
  std::vector<workload::Program> progs(2, workload::Program{workload::compute_phase(1.0)});
  workload::ParallelApp app{"t", std::move(progs)};
  EXPECT_DEATH(engine.attach_app(app, {0, 0}), "one rank");
}

}  // namespace
}  // namespace thermctl::cluster
