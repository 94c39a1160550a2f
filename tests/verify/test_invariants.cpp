#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/control_bank.hpp"
#include "verify/differential.hpp"
#include "workload/app.hpp"
#include "workload/npb.hpp"

namespace thermctl::verify {
namespace {

std::vector<double> ascending(int count) {
  std::vector<double> modes;
  for (int i = 1; i <= count; ++i) {
    modes.push_back(static_cast<double>(i));
  }
  return modes;
}

TEST(ArrayInvariants, CleanFillPasses) {
  const std::vector<double> modes = ascending(10);
  for (int pp : {1, 25, 50, 75, 100}) {
    core::ThermalControlArray arr{modes, 32, core::PolicyParam{pp}};
    InvariantReport report;
    check_control_array(arr, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.checks, 0u);
  }
}

TEST(ArrayInvariants, BrokenOrderingFlagged) {
  const std::vector<double> available = ascending(5);
  // Effectiveness rank goes 1, 3, 2: cells 2→3 descend.
  const std::vector<double> cells{1.0, 4.0, 3.0, 5.0};
  InvariantReport report;
  check_control_array_cells(cells, available, 3, core::PolicyParam{67}, report);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const InvariantViolation& v : report.violations) {
    found = found || v.kind == InvariantKind::kArrayOrder;
  }
  EXPECT_TRUE(found) << report.to_string();
}

TEST(ArrayInvariants, BrokenPinsFlagged) {
  const std::vector<double> available = ascending(5);
  // g1 is not the least effective mode.
  const std::vector<double> bad_front{2.0, 3.0, 5.0, 5.0};
  InvariantReport report;
  check_control_array_cells(bad_front, available, 3, core::PolicyParam{67}, report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, InvariantKind::kArrayPins);

  // gN is not the most effective mode.
  const std::vector<double> bad_back{1.0, 3.0, 4.0, 4.0};
  InvariantReport report2;
  check_control_array_cells(bad_back, available, 3, core::PolicyParam{67}, report2);
  EXPECT_FALSE(report2.ok());
}

TEST(ArrayInvariants, WrongNpFlagged) {
  const std::vector<double> available = ascending(5);
  const std::vector<double> cells{1.0, 3.0, 5.0, 5.0};
  InvariantReport report;
  // Eq. (1) for Pp=1, N=4 gives n_p=1; claiming 3 must be flagged.
  check_control_array_cells(cells, available, 3, core::PolicyParam{1}, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, InvariantKind::kArrayFill);
}

TEST(ArrayInvariants, NonPhysicalModeFlagged) {
  const std::vector<double> available = ascending(5);
  const std::vector<double> cells{1.0, 3.5, 5.0, 5.0};  // 3.5 is not a mode
  InvariantReport report;
  check_control_array_cells(cells, available, 3, core::PolicyParam{67}, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, InvariantKind::kArrayFill);
}

TEST(SelectorInvariants, LiveDecisionsPass) {
  core::ModeSelector selector{core::ModeSelectorConfig{}, 16};
  core::WindowRound round;
  round.level1_delta = CelsiusDelta{3.0};
  round.level2_delta = CelsiusDelta{0.2};
  round.level1_average = Celsius{50.0};
  round.level2_valid = true;
  const core::ModeDecision d = selector.decide(4, round);
  InvariantReport report;
  check_selector_decision(selector, d, 4, round, 16, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SelectorInvariants, OutOfRangeTargetFlagged) {
  core::ModeSelector selector{core::ModeSelectorConfig{}, 16};
  core::WindowRound round;
  core::ModeDecision forged;
  forged.target = 16;  // == N, one past the last legal index
  forged.changed = true;
  InvariantReport report;
  check_selector_decision(selector, forged, 4, round, 16, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, InvariantKind::kSelectorRange);
}

TEST(SelectorInvariants, IllegalLevel2AttributionFlagged) {
  core::ModeSelector selector{core::ModeSelectorConfig{}, 16};
  core::WindowRound round;
  // Level-1 delta large enough to move the index on its own: claiming the
  // decision came from level two is a lie.
  round.level1_delta = CelsiusDelta{10.0};
  round.level2_delta = CelsiusDelta{10.0};
  round.level2_valid = true;
  core::ModeDecision forged = selector.decide(2, round);
  forged.used_level2 = true;
  InvariantReport report;
  check_selector_decision(selector, forged, 2, round, 16, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, InvariantKind::kSelectorAttribution);
}

core::ExperimentConfig small_experiment() {
  core::ExperimentConfig cfg = core::paper_platform();
  cfg.name = "invariant-smoke";
  cfg.nodes = 2;
  cfg.workload = core::WorkloadKind::kCpuBurn;
  cfg.cpu_burn_duration = Seconds{10.0};
  cfg.engine.horizon = Seconds{15.0};
  cfg.fan = core::FanPolicyKind::kDynamic;
  cfg.dvfs = core::DvfsPolicyKind::kTdvfs;
  cfg.tdvfs.threshold = Celsius{46.0};  // low enough to see triggers
  return cfg;
}

TEST(RunInvariants, ArmedExperimentIsCleanAndActuallyChecks) {
  core::ExperimentConfig cfg = small_experiment();
  const std::shared_ptr<InvariantLog> log = arm_invariants(cfg);
  const core::ExperimentResult result = core::run_experiment(cfg);
  const InvariantReport report = log->snapshot();
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The checker must have run: nodes × samples × several invariants each.
  EXPECT_GT(report.checks, 100u);
  EXPECT_FALSE(result.run.times.empty());
}

TEST(RunInvariants, ArmingIsBehaviourallyInert) {
  core::ExperimentConfig plain = small_experiment();
  core::ExperimentConfig armed = small_experiment();
  const std::shared_ptr<InvariantLog> log = arm_invariants(armed);
  const core::ExperimentResult a = core::run_experiment(plain);
  const core::ExperimentResult b = core::run_experiment(armed);
  const ResultDiff diff = diff_results(a, b);
  EXPECT_TRUE(diff.identical()) << diff.difference_count << " diffs; first: "
                                << (diff.differences.empty() ? "" : diff.differences[0]);
  EXPECT_TRUE(log->ok());
}

TEST(RunInvariants, SameLogAccumulatesAcrossRuns) {
  core::ExperimentConfig cfg = small_experiment();
  const std::shared_ptr<InvariantLog> log = arm_invariants(cfg);
  (void)core::run_experiment(cfg);
  const std::uint64_t after_one = log->snapshot().checks;
  (void)core::run_experiment(cfg);
  const std::uint64_t after_two = log->snapshot().checks;
  EXPECT_GT(after_one, 0u);
  EXPECT_EQ(after_two, after_one * 2);  // fresh checker per run, same work
}

TEST(RunInvariants, UnifiedBankGetsEveryTechniqueCheck) {
  // scaling_cluster_size's rig, armed by hand: a BT job on a fleet-backed
  // rack with hot-spot inlets and one unified ControlBank, no
  // run_experiment. The checker must reach both techniques of every unified
  // controller: per tick, each node's three RC checks and two index checks;
  // each technique's Eq. (1) fill once; one coordination check per tDVFS
  // down-trigger.
  constexpr std::size_t kNodes = 8;
  cluster::NodeParams params;
  cluster::Cluster rack{kNodes, params};
  for (std::size_t i = 0; i < kNodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.set_inlet_temperature(kNodes - 1, Celsius{35.0});
  rack.settle_all();
  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{120.0};
  cluster::Engine engine{rack, engine_cfg};
  Rng rng{kNodes * 131 + 7};
  workload::NpbParams npb = workload::bt_class_b();
  npb.iterations = 100;
  workload::ParallelApp app{"BT",
                            workload::make_npb_programs(npb, static_cast<int>(kNodes), rng)};
  std::vector<std::size_t> mapping(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    mapping[i] = i;
  }
  engine.attach_app(app, mapping);
  core::ControlBank bank{kNodes, rack.fleet()->sensor().last_degc.data()};
  core::UnifiedConfig cfg;
  cfg.pp = core::PolicyParam{50};
  cfg.tdvfs.threshold = Celsius{46.0};  // low enough to see triggers
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
  }
  engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });

  core::RigView rig;
  rig.cluster = &rack;
  rig.engine = &engine;
  rig.bank = &bank;
  RunInvariantChecker checker{rig, nullptr};
  std::uint64_t ticks = 0;
  engine.add_periodic(params.sample_period, [&](SimTime now) {
    checker.tick(now);
    ++ticks;
  });
  (void)engine.run();

  InvariantReport fills;
  std::uint64_t down_triggers = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    check_control_array(bank.unified(i).fan().array(), fills);
    check_control_array(bank.unified(i).dvfs().array(), fills);
    for (const core::TdvfsEvent& e : bank.unified(i).dvfs().events()) {
      down_triggers += e.to_ghz < e.from_ghz ? 1 : 0;
    }
  }
  const InvariantReport& report = checker.report();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(down_triggers, 0u);
  EXPECT_EQ(report.checks, ticks * kNodes * (3 + 2) + fills.checks + down_triggers);
}

}  // namespace
}  // namespace thermctl::verify
