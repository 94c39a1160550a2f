// Experiment-harness coverage: every WorkloadKind / FanPolicyKind /
// DvfsPolicyKind combination the benches rely on builds and runs.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace thermctl::core {
namespace {

TEST(ExperimentKinds, IdleWorkloadJustIdles) {
  ExperimentConfig cfg = paper_platform();
  cfg.nodes = 1;
  cfg.workload = WorkloadKind::kIdle;
  cfg.fan = FanPolicyKind::kChipDefault;
  cfg.engine.horizon = Seconds{30.0};
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_FALSE(r.run.app_completed);
  EXPECT_LT(r.run.max_die_temp(), 40.0);
  EXPECT_LT(r.run.nodes[0].util.back(), 0.05);
}

TEST(ExperimentKinds, CpuBurnCyclesShowsDips) {
  ExperimentConfig cfg = paper_platform();
  cfg.nodes = 1;
  cfg.workload = WorkloadKind::kCpuBurnCycles;
  cfg.cpu_burn_duration = Seconds{120.0};
  cfg.fan = FanPolicyKind::kConstantDuty;
  const ExperimentResult r = run_experiment(cfg);
  // Three instances with idle gaps: utilization must dip below 10% at least
  // twice after the first instance started.
  int dips = 0;
  bool was_high = false;
  for (double u : r.run.nodes[0].util) {
    if (u > 0.9) {
      was_high = true;
    } else if (was_high && u < 0.1) {
      ++dips;
      was_high = false;
    }
  }
  EXPECT_GE(dips, 2);
}

TEST(ExperimentKinds, Fig2ProfileRunsToItsHorizon) {
  ExperimentConfig cfg = paper_platform();
  cfg.nodes = 1;
  cfg.workload = WorkloadKind::kFig2Profile;
  cfg.fan = FanPolicyKind::kConstantDuty;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_NEAR(r.run.times.back(), 245.0, 1.0);
  // The profile's full-load plateau must be visible.
  double max_util = 0.0;
  for (double u : r.run.nodes[0].util) {
    max_util = std::max(max_util, u);
  }
  EXPECT_GT(max_util, 0.9);
}

TEST(ExperimentKinds, ChipDefaultFanHonoursCap) {
  ExperimentConfig cfg = paper_platform();
  cfg.nodes = 1;
  cfg.workload = WorkloadKind::kCpuBurn;
  cfg.cpu_burn_duration = Seconds{90.0};
  cfg.fan = FanPolicyKind::kChipDefault;
  cfg.max_duty = DutyCycle{30.0};
  const ExperimentResult r = run_experiment(cfg);
  for (double duty : r.run.nodes[0].duty) {
    EXPECT_LE(duty, 31.0);
  }
}

TEST(ExperimentKinds, LuWorkloadCompletes) {
  ExperimentConfig cfg = paper_platform();
  cfg.workload = WorkloadKind::kNpbLu;
  cfg.npb_iterations_override = 15;
  cfg.fan = FanPolicyKind::kDynamic;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.run.app_completed);
  EXPECT_GT(r.run.exec_time_s, 5.0);
}

TEST(ExperimentKinds, PolicyParamHelpers) {
  EXPECT_EQ(PolicyParam::aggressive().value, 25);
  EXPECT_EQ(PolicyParam::moderate().value, 50);
  EXPECT_EQ(PolicyParam::weak().value, 75);
}

TEST(ExperimentKinds, EventLogsSizedToCluster) {
  ExperimentConfig cfg = paper_platform();
  cfg.nodes = 3;
  cfg.workload = WorkloadKind::kIdle;
  cfg.engine.horizon = Seconds{10.0};
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.tdvfs_events.size(), 3u);
  EXPECT_EQ(r.fan_events.size(), 3u);
  EXPECT_DOUBLE_EQ(r.first_dvfs_trigger_s, -1.0);
}

TEST(ExperimentKinds, EachDynamicShapeBuildsOneBankFamily) {
  // The dynamic fan alone builds fan controllers, tDVFS alone (under a
  // static fan) tDVFS daemons, and the hybrid of the two one unified
  // controller per node: never a fan family beside a tDVFS family.
  struct Shape {
    FanPolicyKind fan;
    DvfsPolicyKind dvfs;
    std::size_t fans;
    std::size_t tdvfs;
    std::size_t unified;
  };
  constexpr std::size_t kNodes = 3;
  const Shape shapes[] = {
      {FanPolicyKind::kDynamic, DvfsPolicyKind::kNone, kNodes, 0, 0},
      {FanPolicyKind::kStaticCurve, DvfsPolicyKind::kTdvfs, 0, kNodes, 0},
      {FanPolicyKind::kDynamic, DvfsPolicyKind::kTdvfs, 0, 0, kNodes},
  };
  for (const Shape& shape : shapes) {
    ExperimentConfig cfg = paper_platform();
    cfg.nodes = kNodes;
    cfg.workload = WorkloadKind::kIdle;
    cfg.engine.horizon = Seconds{1.0};
    cfg.fan = shape.fan;
    cfg.dvfs = shape.dvfs;
    bool observed = false;
    cfg.on_rig_built = [&](const RigView& rig) {
      ASSERT_NE(rig.bank, nullptr);
      EXPECT_EQ(rig.bank->fan_count(), shape.fans);
      EXPECT_EQ(rig.bank->tdvfs_count(), shape.tdvfs);
      EXPECT_EQ(rig.bank->unified_count(), shape.unified);
      for (std::size_t i = 0; i < kNodes; ++i) {
        EXPECT_EQ(rig.bank->fan_technique(i) != nullptr, shape.fan == FanPolicyKind::kDynamic);
        EXPECT_EQ(rig.bank->tdvfs_technique(i) != nullptr, shape.dvfs == DvfsPolicyKind::kTdvfs);
      }
      observed = true;
    };
    (void)run_experiment(cfg);
    EXPECT_TRUE(observed);
  }
}

}  // namespace
}  // namespace thermctl::core
