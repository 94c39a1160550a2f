// Structural tests for the Chrome trace exporter's control-plane and
// watchdog events: plane_budget / plane_policy_update / alert instants must
// carry their full args payload and plane failsafe episodes must export as
// spans — the contract tools/validate_chrome_trace.py enforces in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_export.hpp"
#include "obs/trace.hpp"
#include "temp_path.hpp"

namespace thermctl::obs {
namespace {

std::string export_to_string(const std::vector<TraceEvent>& events) {
  const std::string path = test_temp_path("trace.json");
  write_chrome_trace(path, events);
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(ChromeExport, PlaneBudgetInstantCarriesFullPayload) {
  const std::vector<TraceEvent> events = {
      TraceEvent{.t_s = 1.5,
                 .node = 3,
                 .type = TraceEventType::kPlaneBudget,
                 .subsystem = TraceSubsystem::kPlane,
                 .flags = kTraceFlagChanged,
                 .i0 = 2200000,
                 .a = 95.0,
                 .b = 103.5},
  };
  const std::string json = export_to_string(events);
  EXPECT_NE(json.find("\"name\":\"plane_budget\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_w\":95"), std::string::npos);
  EXPECT_NE(json.find("\"wall_w\":103.5"), std::string::npos);
  EXPECT_NE(json.find("\"cap_khz\":2200000"), std::string::npos);
  EXPECT_NE(json.find("\"changed\":1"), std::string::npos);
  // Cap moved, so a plane_cap counter track sample rides along.
  EXPECT_NE(json.find("\"name\":\"plane_cap\""), std::string::npos);
}

TEST(ChromeExport, PlanePolicyUpdateCarriesPp) {
  const std::vector<TraceEvent> events = {
      TraceEvent{.t_s = 2.0,
                 .node = 0,
                 .type = TraceEventType::kPlanePolicyUpdate,
                 .subsystem = TraceSubsystem::kPlane,
                 .i0 = 4},
  };
  const std::string json = export_to_string(events);
  EXPECT_NE(json.find("\"name\":\"plane_policy_update\""), std::string::npos);
  EXPECT_NE(json.find("\"pp\":4"), std::string::npos);
}

TEST(ChromeExport, PlaneFailsafeEpisodeExportsAsSpan) {
  const std::vector<TraceEvent> events = {
      TraceEvent{.t_s = 3.0,
                 .node = 1,
                 .type = TraceEventType::kPlaneFailsafeEnter,
                 .subsystem = TraceSubsystem::kPlane,
                 .a = 2.5},
      TraceEvent{.t_s = 7.0,
                 .node = 1,
                 .type = TraceEventType::kPlaneFailsafeExit,
                 .subsystem = TraceSubsystem::kPlane,
                 .i0 = 9},
  };
  const std::string json = export_to_string(events);
  EXPECT_NE(json.find("\"name\":\"plane_autonomous\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"start_s\":3"), std::string::npos);
  EXPECT_NE(json.find("\"end_s\":7"), std::string::npos);
  // 4 s span in trace microseconds.
  EXPECT_NE(json.find("\"dur\":4000000"), std::string::npos);
}

TEST(ChromeExport, OpenFailsafeSpanClosesAtLastTimestamp) {
  const std::vector<TraceEvent> events = {
      TraceEvent{.t_s = 1.0,
                 .node = 0,
                 .type = TraceEventType::kPlaneFailsafeEnter,
                 .subsystem = TraceSubsystem::kPlane},
      TraceEvent{.t_s = 6.0,
                 .node = 0,
                 .type = TraceEventType::kWindowRound,
                 .subsystem = TraceSubsystem::kFan},
  };
  const std::string json = export_to_string(events);
  EXPECT_NE(json.find("\"name\":\"plane_autonomous\""), std::string::npos);
  EXPECT_NE(json.find("\"open\":true"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5000000"), std::string::npos);
}

TEST(ChromeExport, AlertInstantsCarryRuleRackValueThreshold) {
  const std::vector<TraceEvent> events = {
      TraceEvent{.t_s = 10.0,
                 .node = 0,
                 .type = TraceEventType::kAlertFire,
                 .subsystem = TraceSubsystem::kAlert,
                 .i0 = 1,
                 .i1 = -1,
                 .a = 312.5,
                 .b = 300.0},
      TraceEvent{.t_s = 14.0,
                 .node = 0,
                 .type = TraceEventType::kAlertClear,
                 .subsystem = TraceSubsystem::kAlert,
                 .i0 = 1,
                 .i1 = -1,
                 .a = 290.0,
                 .b = 300.0},
  };
  const std::string json = export_to_string(events);
  EXPECT_NE(json.find("\"name\":\"alert_fire\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alert_clear\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rack\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"value\":312.5"), std::string::npos);
  EXPECT_NE(json.find("\"threshold\":300"), std::string::npos);
  // The alert lane gets a thread_name metadata record.
  EXPECT_NE(json.find("\"alert\""), std::string::npos);
}

}  // namespace
}  // namespace thermctl::obs
