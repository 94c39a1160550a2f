// Rank stall injection and engine-level load migration.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/load_balancer.hpp"
#include "workload/app.hpp"

namespace thermctl::cluster {
namespace {

NodeParams quiet() {
  NodeParams p;
  p.sensor.noise_sigma_degc = 0.0;
  return p;
}

TEST(Stall, DelaysCompletionByItsDuration) {
  workload::ParallelApp app{"t", {workload::Program{workload::compute_phase(4.8)}}};
  app.inject_stall(0, Seconds{3.0});
  std::vector<GigaHertz> f{GigaHertz{2.4}};
  double t = 0.0;
  while (!app.done() && t < 30.0) {
    app.step(Seconds{0.05}, f);
    t += 0.05;
  }
  EXPECT_NEAR(app.completion_time().value(), 2.0 + 3.0, 0.1);
}

TEST(Stall, RunsAtStallUtilization) {
  workload::ParallelApp app{"t", {workload::Program{workload::compute_phase(48.0)}}};
  app.inject_stall(0, Seconds{2.0}, Utilization{0.3});
  const auto u = app.step(Seconds{1.0}, {{GigaHertz{2.4}}});
  EXPECT_NEAR(u[0].fraction(), 0.3, 1e-6);  // stalled, not computing
}

TEST(Migration, MovesUtilizationToNewNode) {
  Cluster rack{3, quiet()};
  EngineConfig cfg;
  cfg.horizon = Seconds{40.0};
  Engine engine{rack, cfg};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(48.0)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0});

  int fired = 0;
  engine.add_periodic(Seconds{5.0}, [&](SimTime now) {
    if (now.seconds() >= 5.0 && fired == 0) {
      ++fired;
      EXPECT_EQ(engine.rank_on_node(0), std::optional<std::size_t>{0});
      EXPECT_TRUE(engine.migrate_rank(0, 2, Seconds{1.0}));
      EXPECT_EQ(engine.rank_on_node(2), std::optional<std::size_t>{0});
      EXPECT_FALSE(engine.rank_on_node(0).has_value());
    }
  });
  const RunResult result = engine.run();
  EXPECT_EQ(engine.migrations(), 1);
  // Node 0 was busy before the 5 s migration, idle after; node 2 the
  // reverse. Sample at t = 2 s and t = 15 s (4 Hz recording).
  EXPECT_GT(result.nodes[0].util[8], 0.9);
  EXPECT_LT(result.nodes[0].util[60], 0.1);
  EXPECT_LT(result.nodes[2].util[8], 0.1);
  EXPECT_GT(result.nodes[2].util[60], 0.9);
  // Completion pays the 1 s stall: 20 s of work + 1 s.
  EXPECT_NEAR(result.exec_time_s, 21.0, 0.5);
}

TEST(Migration, RefusesOccupiedTarget) {
  Cluster rack{2, quiet()};
  Engine engine{rack, EngineConfig{}};
  std::vector<workload::Program> progs(2,
                                       workload::Program{workload::compute_phase(1.0)});
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0, 1});
  EXPECT_FALSE(engine.migrate_rank(0, 1, Seconds{1.0}));
  EXPECT_EQ(engine.rank_on_node(0), std::optional<std::size_t>{0});
  EXPECT_EQ(engine.migrations(), 0);
}

TEST(Migration, RankOnNodeLookup) {
  Cluster rack{3, quiet()};
  Engine engine{rack, EngineConfig{}};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(1.0)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {1});
  EXPECT_FALSE(engine.rank_on_node(0).has_value());
  ASSERT_TRUE(engine.rank_on_node(1).has_value());
  EXPECT_EQ(engine.rank_on_node(1).value(), 0u);
}

TEST(Balancer, MigratesOffHotNode) {
  Cluster rack{2, quiet()};
  rack.set_inlet_temperature(0, Celsius{42.0});  // node 0 sits in a hot pocket
  rack.node(0).set_utilization(Utilization{0.02});
  rack.node(1).set_utilization(Utilization{0.02});
  rack.settle_all();

  EngineConfig cfg;
  cfg.horizon = Seconds{200.0};
  Engine engine{rack, cfg};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(300.0)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0});  // rank starts on the hot node

  core::LoadBalancerConfig bc;
  bc.imbalance_threshold = CelsiusDelta{5.0};
  bc.consistency_evals = 2;
  bc.migration_cost = Seconds{2.0};
  core::ThermalLoadBalancer balancer{rack, engine, bc};
  engine.add_periodic(Seconds{5.0}, [&balancer](SimTime now) { balancer.on_tick(now); });

  engine.run();
  ASSERT_FALSE(balancer.events().empty());
  EXPECT_EQ(balancer.events().front().from_node, 0u);
  EXPECT_EQ(balancer.events().front().to_node, 1u);
  EXPECT_EQ(engine.rank_on_node(1), std::optional<std::size_t>{0});
}

TEST(Balancer, HonoursCooldown) {
  Cluster rack{2, quiet()};
  rack.set_inlet_temperature(0, Celsius{42.0});
  rack.set_inlet_temperature(1, Celsius{42.0});  // both hot: it would bounce
  rack.settle_all();

  EngineConfig cfg;
  cfg.horizon = Seconds{120.0};
  Engine engine{rack, cfg};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(500.0)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0});

  core::LoadBalancerConfig bc;
  bc.imbalance_threshold = CelsiusDelta{1.0};  // hair trigger
  bc.consistency_evals = 1;
  bc.cooldown = Seconds{60.0};
  core::ThermalLoadBalancer balancer{rack, engine, bc};
  engine.add_periodic(Seconds{5.0}, [&balancer](SimTime now) { balancer.on_tick(now); });

  engine.run();
  // At most 2 migrations fit in 120 s with a 60 s cooldown.
  EXPECT_LE(engine.migrations(), 2);
}

TEST(Balancer, QuietWhenBalanced) {
  Cluster rack{2, quiet()};
  rack.settle_all();
  EngineConfig cfg;
  cfg.horizon = Seconds{60.0};
  Engine engine{rack, cfg};
  std::vector<workload::Program> progs{workload::Program{workload::compute_phase(200.0)}};
  workload::ParallelApp app{"t", std::move(progs)};
  engine.attach_app(app, {0});

  core::ThermalLoadBalancer balancer{rack, engine};
  engine.add_periodic(Seconds{5.0}, [&balancer](SimTime now) { balancer.on_tick(now); });
  engine.run();
  // A working node is always warmer than an idle spare, but it never crosses
  // the min_hot_temp floor at normal inlet temperature — no migrations.
  EXPECT_EQ(engine.migrations(), 0);
}

}  // namespace
}  // namespace thermctl::cluster
