#include "verify/differential.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace thermctl::verify {
namespace {

core::ExperimentConfig quick_config() {
  core::ExperimentConfig cfg = core::paper_platform();
  cfg.name = "diff-smoke";
  cfg.nodes = 1;
  cfg.workload = core::WorkloadKind::kIdle;
  cfg.engine.horizon = Seconds{8.0};
  cfg.fan = core::FanPolicyKind::kDynamic;
  return cfg;
}

TEST(DiffResults, IdenticalRunsDiffClean) {
  const core::ExperimentConfig cfg = quick_config();
  const core::ExperimentResult a = core::run_experiment(cfg);
  const core::ExperimentResult b = core::run_experiment(cfg);
  const ResultDiff diff = diff_results(a, b);
  EXPECT_TRUE(diff.identical())
      << (diff.differences.empty() ? "" : diff.differences[0]);
  EXPECT_GT(diff.fields_compared, 100u);
}

TEST(DiffResults, OneUlpIsDetected) {
  const core::ExperimentConfig cfg = quick_config();
  const core::ExperimentResult a = core::run_experiment(cfg);
  core::ExperimentResult b = core::run_experiment(cfg);
  ASSERT_FALSE(b.run.nodes.empty());
  ASSERT_GT(b.run.nodes[0].die_temp.size(), 3u);
  std::vector<cluster::NodeSeries> poked(b.run.nodes.begin(), b.run.nodes.end());
  poked[0].die_temp[3] =
      std::nextafter(poked[0].die_temp[3], std::numeric_limits<double>::infinity());
  b.run.nodes = cluster::NodeSeriesTable{std::move(poked)};
  const ResultDiff diff = diff_results(a, b);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.difference_count, 1u);
}

TEST(DiffResults, ExtraEventIsDetected) {
  const core::ExperimentConfig cfg = quick_config();
  const core::ExperimentResult a = core::run_experiment(cfg);
  core::ExperimentResult b = core::run_experiment(cfg);
  ASSERT_FALSE(b.fan_events.empty());
  b.fan_events[0].push_back(core::FanEvent{1.0, 10.0, 20.0, false});
  EXPECT_FALSE(diff_results(a, b).identical());
}

TEST(DiffResults, NanComparesEqualToItselfBitwise) {
  // Determinism diffing must treat NaN == NaN (same bits) as identical —
  // an IEEE == would report a spurious mismatch.
  core::ExperimentResult a;
  core::ExperimentResult b;
  a.run.times = {std::numeric_limits<double>::quiet_NaN()};
  b.run.times = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(diff_results(a, b).identical());
  // ... but -0.0 vs +0.0 is a real bit difference.
  a.run.times = {0.0};
  b.run.times = {-0.0};
  EXPECT_FALSE(diff_results(a, b).identical());
}

TEST(OracleCorpus, DeterministicAndSized) {
  const std::vector<core::ExperimentConfig> a = make_oracle_corpus(99, 20);
  const std::vector<core::ExperimentConfig> b = make_oracle_corpus(99, 20);
  ASSERT_EQ(a.size(), 20u);
  ASSERT_EQ(b.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
    EXPECT_EQ(a[i].pp.value, b[i].pp.value) << i;
    EXPECT_EQ(static_cast<int>(a[i].workload), static_cast<int>(b[i].workload)) << i;
  }
  // A different seed gives a different corpus.
  const std::vector<core::ExperimentConfig> c = make_oracle_corpus(100, 20);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_difference = any_difference || a[i].seed != c[i].seed;
  }
  EXPECT_TRUE(any_difference);
}

TEST(OracleCorpus, SpansWorkloadsAndDvfs) {
  const std::vector<core::ExperimentConfig> corpus = make_oracle_corpus(7, 24);
  int idle = 0;
  int burn = 0;
  int cycles = 0;
  int with_dvfs = 0;
  for (const core::ExperimentConfig& cfg : corpus) {
    idle += cfg.workload == core::WorkloadKind::kIdle ? 1 : 0;
    burn += cfg.workload == core::WorkloadKind::kCpuBurn ? 1 : 0;
    cycles += cfg.workload == core::WorkloadKind::kCpuBurnCycles ? 1 : 0;
    with_dvfs += cfg.dvfs == core::DvfsPolicyKind::kTdvfs ? 1 : 0;
  }
  EXPECT_GT(idle, 0);
  EXPECT_GT(burn, 0);
  EXPECT_GT(cycles, 0);
  EXPECT_GT(with_dvfs, 0);
  EXPECT_LT(with_dvfs, 24);
}

TEST(Oracle, SmallCorpusPassesAllPairs) {
  // The full >= 20-config corpus runs in CI (bench/verify_oracle); the unit
  // test keeps a fast representative slice.
  const std::vector<core::ExperimentConfig> corpus = make_oracle_corpus(20260806, 4);
  const OracleReport report = run_oracle(corpus);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.configs, 4u);
  EXPECT_EQ(report.pairs_checked, 28u);  // 7 pairings per config
}

TEST(Oracle, PassivePlanePairingHasTeeth) {
  // The plane-passive-vs-detached pairing is only meaningful if an *active*
  // plane would be caught: run the same config detached and with an actively
  // capping plane, and require a behavioural diff.
  core::ExperimentConfig cfg = quick_config();
  cfg.name = "plane-teeth";
  cfg.nodes = 2;
  cfg.workload = core::WorkloadKind::kCpuBurn;
  cfg.cpu_burn_duration = Seconds{10.0};
  cfg.engine.horizon = Seconds{20.0};
  const core::ExperimentResult detached = core::run_experiment(cfg);

  cfg.control_plane.enabled = true;
  cfg.control_plane.plane.passive = false;
  cfg.control_plane.plane.rack_budget_w = 60.0;  // well under two burning nodes
  const core::ExperimentResult capped = core::run_experiment(cfg);

  EXPECT_FALSE(diff_results(detached, capped).identical());
  EXPECT_GT(capped.plane_stats.caps_lowered, 0u);
  EXPECT_EQ(detached.plane_stats.rounds, 0u);
}

TEST(OracleCorpus, IncludesWideRacksForShardedPairs) {
  // The sharded-vs-serial pairing needs node counts the 2-5 shard rotation
  // does not divide evenly; the corpus must provide racks wider than 3.
  const std::vector<core::ExperimentConfig> corpus = make_oracle_corpus(7, 24);
  int wide = 0;
  for (const core::ExperimentConfig& cfg : corpus) {
    wide += cfg.nodes > 3 ? 1 : 0;
  }
  EXPECT_GE(wide, 4);
  EXPECT_LT(wide, 24);
}

}  // namespace
}  // namespace thermctl::verify
