// Engine single-thread ownership guard.
//
// A parallel sweep must build one cluster/engine rig per point; sharing a
// rig across runner workers is a determinism bug. The engine binds itself to
// the first thread that runs it and THERMCTL_ASSERTs on a run() from any
// other thread. Also covers the O(1) reverse rank map the guard protects.
#include <thread>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "workload/app.hpp"
#include "workload/synthetic.hpp"

namespace thermctl::cluster {
namespace {

EngineConfig short_config() {
  EngineConfig cfg;
  cfg.horizon = Seconds{1.0};
  return cfg;
}

TEST(EngineThreadGuard, SameThreadMayRunRepeatedly) {
  Cluster rack{2, NodeParams{}};
  Engine engine{rack, short_config()};
  engine.run();
  engine.run();  // still the owning thread: fine
  SUCCEED();
}

TEST(EngineThreadGuard, RunFromAnotherThreadDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Cluster rack{2, NodeParams{}};
  Engine engine{rack, short_config()};
  engine.run();  // binds the engine to this thread
  EXPECT_DEATH(
      {
        std::thread other{[&engine] { engine.run(); }};
        other.join();
      },
      "bound to the thread");
}

TEST(EngineThreadGuard, FreshEngineMayBeRunByAWorkerThread) {
  // Binding happens at first run(), not construction — building rigs on the
  // main thread and running them on pool workers is the supported pattern.
  Cluster rack{2, NodeParams{}};
  Engine engine{rack, short_config()};
  std::thread worker{[&engine] { engine.run(); }};
  worker.join();
  SUCCEED();
}

TEST(EngineRankMap, ReverseMapTracksAttachAndMigration) {
  Cluster rack{4, NodeParams{}};
  Engine engine{rack, short_config()};
  workload::ParallelApp app{
      "pair", {workload::cpu_burn_program(Seconds{60.0}),
               workload::cpu_burn_program(Seconds{60.0})}};
  engine.attach_app(app, {2, 0});

  EXPECT_EQ(engine.rank_on_node(2), std::optional<std::size_t>{0});
  EXPECT_EQ(engine.rank_on_node(0), std::optional<std::size_t>{1});
  EXPECT_FALSE(engine.rank_on_node(1).has_value());
  EXPECT_FALSE(engine.rank_on_node(3).has_value());

  ASSERT_TRUE(engine.migrate_rank(0, 3, Seconds{0.5}));
  EXPECT_FALSE(engine.rank_on_node(2).has_value());
  EXPECT_EQ(engine.rank_on_node(3), std::optional<std::size_t>{0});

  // Occupied target refused, maps unchanged.
  EXPECT_FALSE(engine.migrate_rank(1, 3, Seconds{0.5}));
  EXPECT_EQ(engine.rank_on_node(0), std::optional<std::size_t>{1});
  EXPECT_EQ(engine.rank_on_node(3), std::optional<std::size_t>{0});
}

}  // namespace
}  // namespace thermctl::cluster
