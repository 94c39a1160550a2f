// ParallelRunner / run_sweep determinism contract: a parallel sweep is
// observationally identical to the same sweep run serially — results come
// back in input order and are bit-identical run-for-run.
#include "runtime/parallel_runner.hpp"

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "runtime/sweep.hpp"

namespace thermctl::runtime {
namespace {

TEST(ParallelRunner, MapReturnsResultsInInputOrder) {
  ParallelRunner runner{4};
  const std::vector<int> out = runner.map<int>(64, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelRunner, MapRunsEveryIndexOnce) {
  ParallelRunner runner{3};
  std::vector<std::atomic<int>> hits(32);
  runner.map<int>(32, [&hits](std::size_t i) { return hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelRunner, FirstExceptionByIndexIsRethrown) {
  ParallelRunner runner{4};
  try {
    runner.map<int>(8, [](std::size_t i) -> int {
      if (i == 2 || i == 5) {
        throw std::runtime_error("job " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 2");  // lowest failing index wins
  }
}

TEST(ParallelRunner, ZeroJobsIsANoop) {
  ParallelRunner runner{2};
  const std::vector<int> out = runner.map<int>(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(SweepSeed, PointSeedsAreDecorrelatedAndStable) {
  const std::uint64_t base = 20260708;
  // Deterministic: same inputs, same seed.
  EXPECT_EQ(sweep_point_seed(base, 0), sweep_point_seed(base, 0));
  // Distinct across points and from the base.
  std::set<std::uint64_t> seen;
  seen.insert(base);
  for (std::size_t p = 0; p < 64; ++p) {
    seen.insert(sweep_point_seed(base, p));
  }
  EXPECT_EQ(seen.size(), 65u);
}

// ---- experiment-level determinism ----

std::vector<core::ExperimentConfig> tiny_sweep() {
  std::vector<core::ExperimentConfig> configs;
  for (int pp : {25, 40, 55, 70}) {
    core::ExperimentConfig cfg = core::paper_platform();
    cfg.name = "sweep_pp" + std::to_string(pp);
    cfg.nodes = 2;
    cfg.workload = core::WorkloadKind::kNpbBt;
    cfg.npb_iterations_override = 5;
    cfg.fan = core::FanPolicyKind::kDynamic;
    cfg.dvfs = core::DvfsPolicyKind::kTdvfs;
    cfg.pp = core::PolicyParam{pp};
    cfg.max_duty = DutyCycle{50.0};
    configs.push_back(cfg);
  }
  return configs;
}

void expect_bit_identical(const cluster::RunResult& a, const cluster::RunResult& b) {
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.app_completed, b.app_completed);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].die_temp, b.nodes[i].die_temp) << "node " << i;
    EXPECT_EQ(a.nodes[i].sensor_temp, b.nodes[i].sensor_temp) << "node " << i;
    EXPECT_EQ(a.nodes[i].duty, b.nodes[i].duty) << "node " << i;
    EXPECT_EQ(a.nodes[i].rpm, b.nodes[i].rpm) << "node " << i;
    EXPECT_EQ(a.nodes[i].freq_ghz, b.nodes[i].freq_ghz) << "node " << i;
    EXPECT_EQ(a.nodes[i].power_w, b.nodes[i].power_w) << "node " << i;
    EXPECT_EQ(a.nodes[i].util, b.nodes[i].util) << "node " << i;
    EXPECT_EQ(a.nodes[i].activity, b.nodes[i].activity) << "node " << i;
  }
  ASSERT_EQ(a.summaries.size(), b.summaries.size());
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    EXPECT_EQ(a.summaries[i].avg_die_temp, b.summaries[i].avg_die_temp);
    EXPECT_EQ(a.summaries[i].max_die_temp, b.summaries[i].max_die_temp);
    EXPECT_EQ(a.summaries[i].avg_duty, b.summaries[i].avg_duty);
    EXPECT_EQ(a.summaries[i].avg_power_w, b.summaries[i].avg_power_w);
    EXPECT_EQ(a.summaries[i].energy_j, b.summaries[i].energy_j);
    EXPECT_EQ(a.summaries[i].freq_transitions, b.summaries[i].freq_transitions);
    EXPECT_EQ(a.summaries[i].prochot_events, b.summaries[i].prochot_events);
  }
}

TEST(RunSweep, ParallelSweepBitIdenticalToSerial) {
  const auto configs = tiny_sweep();
  const auto serial = run_sweep(configs, {.threads = 1});
  const auto parallel = run_sweep(configs, {.threads = 4});
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    expect_bit_identical(serial[i].run, parallel[i].run);
    EXPECT_EQ(serial[i].first_dvfs_trigger_s, parallel[i].first_dvfs_trigger_s);
    ASSERT_EQ(serial[i].fan_events.size(), parallel[i].fan_events.size());
    for (std::size_t n = 0; n < serial[i].fan_events.size(); ++n) {
      EXPECT_EQ(serial[i].fan_events[n].size(), parallel[i].fan_events[n].size());
    }
  }
}

TEST(RunSweep, RepeatedParallelSweepsAreReproducible) {
  const auto configs = tiny_sweep();
  const auto first = run_sweep(configs, {.threads = 3});
  const auto second = run_sweep(configs, {.threads = 3});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    expect_bit_identical(first[i].run, second[i].run);
  }
}

}  // namespace
}  // namespace thermctl::runtime
