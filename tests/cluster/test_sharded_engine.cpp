// Sharded engine determinism: EngineConfig::workers must be behaviourally
// inert. The differential oracle covers full experiment configs; these tests
// pin the property at the engine level with a rig the oracle does not build
// (room coupling + out-of-phase fleet loads + default sensor noise), across
// divisible and non-divisible node/shard partitions, compared bit-for-bit.

#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"

namespace thermctl::cluster {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))

/// A rig that exercises every coupling point the BSP barrier must respect:
/// room inlet feedback (rack power reduced across all nodes each step),
/// a fleet load whose nodes run out of phase with each other, and the default
/// seeded sensor noise so sample order matters.
RunResult run_rig(std::size_t nodes, int workers) {
  NodeParams params;  // defaults: sensor noise on, per-node seeds
  Cluster cluster{nodes, params};
  RoomModel room{nodes};
  EngineConfig cfg;
  cfg.horizon = Seconds{12.0};
  cfg.workers = workers;
  Engine engine{cluster, cfg};
  engine.attach_room(room);
  engine.set_fleet_load_fn(
      [](SimTime t, double* util, const std::uint8_t* halted, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          const double phase = t.seconds() + static_cast<double>(i);
          util[i] = halted[i] != 0 ? 0.0 : 0.5 + 0.4 * std::sin(phase);
        }
      });
  return engine.run();
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t t = 0; t < a.times.size(); ++t) {
    EXPECT_BITS_EQ(a.times[t], b.times[t]) << "t=" << t;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const NodeSeries& sa = a.nodes[i];
    const NodeSeries& sb = b.nodes[i];
    ASSERT_EQ(sa.die_temp.size(), sb.die_temp.size()) << "node " << i;
    for (std::size_t t = 0; t < sa.die_temp.size(); ++t) {
      EXPECT_BITS_EQ(sa.die_temp[t], sb.die_temp[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.sensor_temp[t], sb.sensor_temp[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.duty[t], sb.duty[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.rpm[t], sb.rpm[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.power_w[t], sb.power_w[t]) << "node " << i << " t=" << t;
      EXPECT_BITS_EQ(sa.util[t], sb.util[t]) << "node " << i << " t=" << t;
    }
  }
  ASSERT_EQ(a.summaries.size(), b.summaries.size());
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    EXPECT_BITS_EQ(a.summaries[i].avg_die_temp, b.summaries[i].avg_die_temp);
    EXPECT_BITS_EQ(a.summaries[i].max_die_temp, b.summaries[i].max_die_temp);
    EXPECT_BITS_EQ(a.summaries[i].energy_j, b.summaries[i].energy_j);
  }
}

TEST(ShardedEngine, ResolvedWorkersClampsToNodesAndHardware) {
  NodeParams params;
  Cluster cluster{5, params};
  {
    Engine engine{cluster, EngineConfig{}};
    EXPECT_EQ(engine.resolved_workers(), 1u);  // default workers = 1
  }
  {
    EngineConfig cfg;
    cfg.workers = 3;
    Engine engine{cluster, cfg};
    EXPECT_EQ(engine.resolved_workers(), 3u);
  }
  {
    EngineConfig cfg;
    cfg.workers = 100;  // more shards than nodes: clamp to node count
    Engine engine{cluster, cfg};
    EXPECT_EQ(engine.resolved_workers(), 5u);
  }
  {
    EngineConfig cfg;
    cfg.workers = 0;  // auto: one per hardware thread, at least one
    Engine engine{cluster, cfg};
    EXPECT_GE(engine.resolved_workers(), 1u);
    EXPECT_LE(engine.resolved_workers(), 5u);
  }
}

TEST(ShardedEngine, AutoWorkersKeepSmallClustersSerial) {
  // A 16-node step is microseconds of physics; a pool round trip per step
  // would cost more than sharding saves, so auto stays serial.
  NodeParams params;
  Cluster cluster{16, params};
  EngineConfig cfg;
  cfg.workers = 0;
  EXPECT_EQ(Engine(cluster, cfg).resolved_workers(), 1u);
  // An explicit count is taken as requested, so small rigs can still shard.
  cfg.workers = 4;
  EXPECT_EQ(Engine(cluster, cfg).resolved_workers(), 4u);
}

TEST(ShardedEngine, AutoWorkersShardLargeClusters) {
  if (runtime::default_thread_count() < 2) {
    GTEST_SKIP() << "one hardware thread: auto never shards";
  }
  NodeParams params;
  Cluster cluster{2 * Engine::kMinNodesPerShard, params};
  EngineConfig cfg;
  cfg.workers = 0;
  EXPECT_EQ(Engine(cluster, cfg).resolved_workers(), 2u);
}

TEST(ShardedEngine, BitIdenticalToSerialAcrossPartitions) {
  // 7 nodes: workers 2 -> shards 4+3, 3 -> 3+2+2, 7 -> all singletons, and
  // 16 clamps to 7. None but the last divide evenly.
  const RunResult serial = run_rig(7, 1);
  for (int workers : {2, 3, 7, 16}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_bitwise_equal(serial, run_rig(7, workers));
  }
}

TEST(ShardedEngine, SingleNodeClusterShardsToOneAndMatches) {
  const RunResult serial = run_rig(1, 1);
  expect_bitwise_equal(serial, run_rig(1, 4));
}

}  // namespace
}  // namespace thermctl::cluster
