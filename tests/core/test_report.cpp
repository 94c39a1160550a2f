#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/rollup.hpp"
#include "obs/spill.hpp"
#include "obs/trace.hpp"
#include "temp_path.hpp"

namespace thermctl::core {
namespace {

ExperimentResult sample_result() {
  ExperimentResult r;
  r.run.exec_time_s = 219.0;
  r.run.app_completed = true;
  r.run.summaries.resize(2);
  r.run.nodes = cluster::NodeSeriesTable{std::vector<cluster::NodeSeries>(2)};
  r.run.summaries[0].avg_die_temp = 49.5;
  r.run.summaries[0].max_die_temp = 52.0;
  r.run.summaries[0].avg_duty = 55.0;
  r.run.summaries[0].avg_power_w = 99.8;
  r.run.summaries[0].freq_transitions = 2;
  r.run.summaries[1].avg_die_temp = 50.1;
  r.run.summaries[1].max_die_temp = 53.5;
  r.run.summaries[1].avg_power_w = 98.2;
  r.run.summaries[1].prochot_events = 1;
  r.tdvfs_events.resize(2);
  r.fan_events.resize(2);
  r.tdvfs_events[0].push_back(TdvfsEvent{70.0, 2.4, 2.2});
  r.fan_events[1].push_back(FanEvent{12.0, 10.0, 35.0, false});
  r.fan_events[1].push_back(FanEvent{80.0, 35.0, 50.0, true});
  return r;
}

/// The run-summary JSON `write_run_summary_json` writes for `r`.
std::string summary_json(const ExperimentResult& r) {
  const std::string path = test_temp_path("summary.json");
  write_run_summary_json(path, "report", r);
  std::stringstream ss;
  ss << std::ifstream{path}.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(Report, VerdictCarriesHeadlineNumbers) {
  const std::string json = summary_json(sample_result());
  EXPECT_NE(json.find("\"completed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"exec_time_s\":219"), std::string::npos);
  EXPECT_NE(json.find("\"max_die_temp_c\":53.5"), std::string::npos);  // hottest die
  EXPECT_NE(json.find("\"freq_transitions\":2"), std::string::npos);
}

TEST(Report, IncompleteRunSaysSo) {
  ExperimentResult r = sample_result();
  r.run.app_completed = false;
  EXPECT_NE(summary_json(r).find("\"completed\":false"), std::string::npos);
}

TEST(Report, PerNodeTableListsEveryNode) {
  const std::string json = summary_json(sample_result());
  EXPECT_NE(json.find("\"node\":0"), std::string::npos);
  EXPECT_NE(json.find("\"node\":1"), std::string::npos);
  EXPECT_NE(json.find("\"avg_die_temp_c\":49.5"), std::string::npos);
  EXPECT_NE(json.find("\"prochot_events\":1"), std::string::npos);
}

// The live-pipeline sections of the run-summary JSON are a machine-readable
// contract: fixed keys, fixed nesting. This round-trips a fully populated
// result through write_run_summary_json and checks the schema keys and a few
// exact values — effectively a golden-file test that tolerates float noise.
TEST(RunSummaryJson, RoundTripsLivePipelineSections) {
  ExperimentResult r = sample_result();

  r.trace = std::make_shared<obs::RunTrace>(2, 2);
  for (int i = 0; i < 4; ++i) {
    r.trace->ring(1).emit(obs::TraceEvent{.t_s = 1.0 + i});
  }

  obs::SpillStats spill;
  spill.drains = 7;
  spill.events_spilled = 4;
  spill.events_lost = 2;
  spill.deferred_drains = 1;
  spill.lost_by_node = {0, 2};
  r.spill = spill;

  obs::RollupConfig rcfg;
  rcfg.enabled = true;
  rcfg.interval_s = 0.5;
  rcfg.nodes_per_rack = 1;
  rcfg.violation_temp_c = 55.0;
  r.rollup = std::make_shared<obs::FleetRollup>(2, rcfg);
  r.rollup->begin(0.5);
  r.rollup->observe(0, 60.0, 100.0, true, false);
  r.rollup->observe(1, 50.0, 90.0, false, false);
  r.rollup->commit(1, 3);

  r.alert_rules = {{"hot-rack", obs::AlertKind::kMaxTemp, 55.0, 0.0, true}};
  obs::AlertEvent ev;
  ev.rule = 0;
  ev.name = "hot-rack";
  ev.rack = 0;
  ev.fired_at_s = 0.5;
  ev.cleared_at_s = -1.0;
  ev.peak = 60.0;
  r.alerts = {ev};

  const std::string path = test_temp_path("summary.json");
  write_run_summary_json(path, "roundtrip", r);
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  // trace section with per-node drop accounting (ring capacity 2, 4 emits).
  EXPECT_NE(json.find("\"dropped_by_node\":[0,2]"), std::string::npos);

  // spill section mirrors SpillStats exactly.
  EXPECT_NE(json.find("\"spill\":{"), std::string::npos);
  EXPECT_NE(json.find("\"drains\":7"), std::string::npos);
  EXPECT_NE(json.find("\"events_spilled\":4"), std::string::npos);
  EXPECT_NE(json.find("\"events_lost\":2"), std::string::npos);
  EXPECT_NE(json.find("\"deferred_drains\":1"), std::string::npos);
  EXPECT_NE(json.find("\"lost_by_node\":[0,2]"), std::string::npos);

  // rollup section: config echo, fleet series row, per-rack aggregate rows.
  EXPECT_NE(json.find("\"rollup\":{"), std::string::npos);
  EXPECT_NE(json.find("\"interval_s\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"racks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"samples_recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"max_temp_c\":60"), std::string::npos);
  EXPECT_NE(json.find("\"power_w\":190"), std::string::npos);
  EXPECT_NE(json.find("\"plane_failsafe_entries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sensor_rejected\":3"), std::string::npos);
  EXPECT_NE(json.find("\"racks_summary\":["), std::string::npos);
  EXPECT_NE(json.find("\"peak_power_w\":100"), std::string::npos);
  EXPECT_NE(json.find("\"last_capped_nodes\":1"), std::string::npos);

  // alerts section: declarative rules plus machine-readable episodes.
  EXPECT_NE(json.find("\"alerts\":{"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"max_temp\""), std::string::npos);
  EXPECT_NE(json.find("\"per_rack\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hot-rack\""), std::string::npos);
  EXPECT_NE(json.find("\"fired_at_s\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"cleared_at_s\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"peak\":60"), std::string::npos);
}

TEST(Report, MentionsDropsSpillLossAndAlerts) {
  ExperimentResult r = sample_result();
  r.trace = std::make_shared<obs::RunTrace>(2, 2);
  for (int i = 0; i < 4; ++i) {
    r.trace->ring(1).emit(obs::TraceEvent{.t_s = 1.0 + i});
  }
  obs::SpillStats spill;
  spill.events_spilled = 8;
  spill.events_lost = 2;
  r.spill = spill;
  r.alert_rules = {{"hot-rack", obs::AlertKind::kMaxTemp, 55.0, 0.0, true}};
  obs::AlertEvent ev;
  ev.name = "hot-rack";
  ev.fired_at_s = 0.5;
  r.alerts = {ev};

  const std::string json = summary_json(r);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"events_spilled\":8,\"events_lost\":2"), std::string::npos);
  // One episode, still firing at the end of the run.
  EXPECT_NE(json.find("\"name\":\"hot-rack\",\"rack\":-1,\"fired_at_s\":0.5,"
                      "\"cleared_at_s\":-1"),
            std::string::npos);
}

}  // namespace
}  // namespace thermctl::core
