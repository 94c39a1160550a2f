// Randomized fault-campaign integration tests: seeded schedules of stuck
// sensors and i2c bus faults over the full experiment stack, run through the
// parallel sweep runtime. The fault-aware controllers must enter fail-safe
// cooling, keep every node below the emergency temperature, restore normal
// control on recovery, and account every fault event — deterministically.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "runtime/sweep.hpp"
#include "temp_path.hpp"
#include "verify/differential.hpp"

namespace thermctl::core {
namespace {

/// A 2-node campaign over a sustained cpu-burn: hot enough that blind
/// control would matter, short enough for a test.
ExperimentConfig campaign_config() {
  ExperimentConfig cfg = paper_platform();
  cfg.name = "fault-campaign";
  cfg.nodes = 2;
  cfg.workload = WorkloadKind::kCpuBurn;
  cfg.cpu_burn_duration = Seconds{60.0};
  cfg.engine.horizon = Seconds{120.0};
  cfg.fan = FanPolicyKind::kDynamic;
  cfg.dvfs = DvfsPolicyKind::kTdvfs;
  cfg.pp = PolicyParam::aggressive();
  cfg.fault_aware = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 7;
  cfg.faults.episodes_per_node = 3;
  cfg.faults.start_after = Seconds{15.0};
  cfg.faults.min_duration = Seconds{10.0};
  cfg.faults.max_duration = Seconds{20.0};
  return cfg;
}

TEST(FaultCampaign, ScheduleIsSeededAndSorted) {
  const ExperimentConfig cfg = campaign_config();
  const auto a = make_fault_schedule(cfg.faults, 0, cfg.engine.horizon);
  const auto b = make_fault_schedule(cfg.faults, 0, cfg.engine.horizon);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].start.value(), b[i].start.value());
    EXPECT_DOUBLE_EQ(a[i].end.value(), b[i].end.value());
    EXPECT_GE(a[i].start.value(), cfg.faults.start_after.value());
    EXPECT_GT(a[i].end.value(), a[i].start.value());
    if (i > 0) {
      EXPECT_GE(a[i].start.value(), a[i - 1].start.value());
    }
  }
  // Different nodes get decorrelated schedules.
  const auto other = make_fault_schedule(cfg.faults, 1, cfg.engine.horizon);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].start.value() != other[i].start.value();
  }
  EXPECT_TRUE(differs);
}

TEST(FaultCampaign, DisabledCampaignYieldsNoSchedule) {
  FaultCampaignConfig off;
  EXPECT_TRUE(make_fault_schedule(off, 0, Seconds{100.0}).empty());
}

TEST(FaultCampaign, FailsafeEngagesAndNodesStayBelowEmergency) {
  const ExperimentConfig cfg = campaign_config();
  const ExperimentResult result = run_experiment(cfg);

  // The seeded schedule must exercise both fault kinds somewhere.
  ASSERT_EQ(result.fault_schedules.size(), cfg.nodes);
  int stuck_episodes = 0;
  int bus_episodes = 0;
  for (const auto& schedule : result.fault_schedules) {
    for (const FaultEpisode& e : schedule) {
      (e.kind == FaultEpisode::Kind::kSensorStuck ? stuck_episodes : bus_episodes) += 1;
    }
  }
  ASSERT_GT(stuck_episodes, 0) << "seed no longer schedules a stuck sensor";
  ASSERT_GT(bus_episodes, 0) << "seed no longer schedules a bus fault";

  // Degradation engaged and recovered.
  const ControllerFaultStats& fs = result.fault_stats;
  EXPECT_GE(fs.sensor_failures, 1u);
  EXPECT_GE(fs.sensor_recoveries, 1u);
  EXPECT_GE(fs.failsafe_entries, 1u);
  EXPECT_GE(fs.failsafe_exits, 1u);
  EXPECT_GE(fs.dvfs_hold_entries, 1u);

  // Fail-safe cooling held: no node ever reached the 90 °C emergency
  // (THERMTRIP) temperature, with margin.
  EXPECT_LT(result.run.max_die_temp(), 85.0);

  // Bus faults flowed into the metrics: the driver retried and, for
  // persistent episodes, exhausted its budget.
  EXPECT_GT(result.run.total_i2c_bus_faults(), 0u);
  EXPECT_GT(result.run.total_i2c_retries(), 0u);
  EXPECT_GT(result.run.total_i2c_exhausted(), 0u);

  // The same counters surface in the run-summary JSON.
  const std::string path = test_temp_path("summary.json");
  write_run_summary_json(path, cfg.name, result);
  std::stringstream json;
  json << std::ifstream{path}.rdbuf();
  std::remove(path.c_str());
  const auto has = [&json](const std::string& key, std::uint64_t value) {
    return json.str().find("\"" + key + "\":" + std::to_string(value)) != std::string::npos;
  };
  EXPECT_TRUE(has("failsafe_entries", fs.failsafe_entries));
  EXPECT_TRUE(has("sensor_failures", fs.sensor_failures));
  EXPECT_TRUE(has("dvfs_hold_entries", fs.dvfs_hold_entries));
  for (const cluster::NodeSummary& s : result.run.summaries) {
    EXPECT_TRUE(has("i2c_retries", s.i2c_retries));
    EXPECT_TRUE(has("i2c_exhausted", s.i2c_exhausted));
    EXPECT_TRUE(has("i2c_naks", s.i2c_naks));
    EXPECT_TRUE(has("i2c_bus_faults", s.i2c_bus_faults));
  }
}

TEST(FaultCampaign, HybridCountsEachSensorReadingOncePerNode) {
  // The hybrid's one unified controller per node classifies each reading
  // through one gate, and the run's sensor counters are the sum of those
  // gates: a reading rejected on a node counts once, not once per technique.
  ExperimentConfig cfg = campaign_config();
  SensorHealthStats gates;
  cfg.on_rig_built = [&gates](const RigView& rig) {
    ASSERT_EQ(rig.bank->unified_count(), rig.cluster->size());
    // Registered after the bank's tick, so the last firing sees the gates'
    // final counts.
    rig.engine->add_periodic(rig.config->node_params.sample_period,
                             [&gates, bank = rig.bank](SimTime) {
                               gates = SensorHealthStats{};
                               for (std::size_t i = 0; i < bank->unified_count(); ++i) {
                                 const SensorHealthStats& s = bank->unified(i).health()->stats();
                                 gates.rejected += s.rejected;
                                 gates.stuck_detections += s.stuck_detections;
                                 gates.failures += s.failures;
                                 gates.recoveries += s.recoveries;
                               }
                             });
  };
  const ControllerFaultStats fs = run_experiment(cfg).fault_stats;
  EXPECT_GT(fs.sensor_rejected + fs.sensor_stuck_detections, 0u);
  EXPECT_EQ(fs.sensor_rejected, gates.rejected);
  EXPECT_EQ(fs.sensor_stuck_detections, gates.stuck_detections);
  EXPECT_EQ(fs.sensor_failures, gates.failures);
  EXPECT_EQ(fs.sensor_recoveries, gates.recoveries);
}

TEST(FaultCampaign, ParallelSweepReproducesCampaignBitExactly) {
  const ExperimentConfig cfg = campaign_config();
  const std::vector<ExperimentConfig> points{cfg, cfg};

  runtime::SweepOptions parallel;
  parallel.threads = 2;
  const auto par = runtime::run_sweep(points, parallel);
  runtime::SweepOptions serial;
  serial.threads = 1;
  const auto ser = runtime::run_sweep({cfg}, serial);

  ASSERT_EQ(par.size(), 2u);
  for (const ExperimentResult* r : {&par[0], &par[1]}) {
    ASSERT_EQ(r->run.nodes.size(), ser[0].run.nodes.size());
    for (std::size_t n = 0; n < r->run.nodes.size(); ++n) {
      ASSERT_EQ(r->run.nodes[n].die_temp, ser[0].run.nodes[n].die_temp) << "node " << n;
      ASSERT_EQ(r->run.nodes[n].duty, ser[0].run.nodes[n].duty) << "node " << n;
      ASSERT_EQ(r->run.nodes[n].freq_ghz, ser[0].run.nodes[n].freq_ghz) << "node " << n;
    }
    EXPECT_EQ(r->fault_stats.failsafe_entries, ser[0].fault_stats.failsafe_entries);
    EXPECT_EQ(r->fault_stats.sensor_failures, ser[0].fault_stats.sensor_failures);
    EXPECT_EQ(r->run.total_i2c_bus_faults(), ser[0].run.total_i2c_bus_faults());
  }
}

TEST(FaultCampaign, ZeroFaultRunsBitIdenticalWithGatingOnOrOff) {
  // The acceptance bar for the whole feature: with no faults injected, the
  // fault-aware stack must be indistinguishable from the blind one.
  ExperimentConfig blind = campaign_config();
  blind.faults.enabled = false;
  blind.fault_aware = false;
  ExperimentConfig gated = blind;
  gated.fault_aware = true;

  const ExperimentResult a = run_experiment(blind);
  const ExperimentResult b = run_experiment(gated);

  ASSERT_EQ(a.run.nodes.size(), b.run.nodes.size());
  for (std::size_t n = 0; n < a.run.nodes.size(); ++n) {
    EXPECT_EQ(a.run.nodes[n].sensor_temp, b.run.nodes[n].sensor_temp);
    EXPECT_EQ(a.run.nodes[n].die_temp, b.run.nodes[n].die_temp);
    EXPECT_EQ(a.run.nodes[n].duty, b.run.nodes[n].duty);
    EXPECT_EQ(a.run.nodes[n].freq_ghz, b.run.nodes[n].freq_ghz);
  }
  // No fault machinery fired, and the clean run's digest is unchanged too.
  EXPECT_EQ(b.fault_stats.failsafe_entries, 0u);
  EXPECT_EQ(b.fault_stats.sensor_failures, 0u);
  EXPECT_EQ(a.run.total_i2c_retries(), 0u);
  EXPECT_EQ(b.run.total_i2c_retries(), 0u);
  EXPECT_EQ(verify::digest_result(a), verify::digest_result(b));
}

}  // namespace
}  // namespace thermctl::core
