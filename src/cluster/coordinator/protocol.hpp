// Control-plane wire protocol: node ⇄ rack ⇄ room.
//
// The paper runs four independent per-node unified controllers under one
// flat `room_feedback` loop; at fleet scale the missing tier is an explicit
// hierarchy (ControlPULP's supervisor/worker shape): nodes push telemetry up,
// coordinators aggregate and push policy (`Pp`) and power budgets back down.
// Everything here is a plain request/response struct — POD payloads in a
// tagged union — so the same messages can later ride a socket transport
// unchanged (fixed-size, no pointers, no ownership).
//
// Message flow per control round (all deterministic, engine thread):
//
//   NodeAgent      ──TelemetryReport──▶  RackCoordinator ──RackReport──▶ Room
//   NodeAgent      ──JoinRequest─────▶  RackCoordinator
//   RackCoordinator──JoinAck─────────▶  NodeAgent
//   RackCoordinator──PowerBudget─────▶  NodeAgent        (also the heartbeat)
//   RackCoordinator──PolicyUpdate────▶  NodeAgent
//   RoomCoordinator──PowerBudget─────▶  RackCoordinator
//   RoomCoordinator──PolicyUpdate────▶  RackCoordinator
#pragma once

#include <cstdint>
#include <string_view>

namespace thermctl::cluster::ctrl {

/// Transport address of one plane participant (agent or coordinator).
using Endpoint = std::uint32_t;
constexpr Endpoint kNoEndpoint = 0xffffffffu;

enum class MsgType : std::uint8_t {
  kNone = 0,
  /// Node → rack: one sampling round of out-of-band telemetry.
  kTelemetryReport = 1,
  /// Node → rack: (re)join the coordinator's member set.
  kJoinRequest = 2,
  /// Rack → node: membership confirmed; budgets/policy will follow.
  kJoinAck = 3,
  /// Downstream: re-tune the unified controllers' policy parameter Pp.
  kPolicyUpdate = 5,
  /// Downstream: power budget in watts (<= 0 releases any cap).
  kPowerBudget = 6,
  /// Rack → room: aggregated rack telemetry.
  kRackReport = 7,
};

[[nodiscard]] std::string_view to_string(MsgType type);

/// One node's out-of-band view, as the BMC plane would report it (reads node
/// state directly — never through the in-band i2c/sysfs surfaces, whose
/// traffic counters belong to the node's own controllers).
struct TelemetryReport {
  std::uint32_t node = 0;
  double t_s = 0.0;
  double sensor_c = 0.0;   // last thermal-sensor conversion
  double die_c = 0.0;      // true die temperature (BMC diode)
  double wall_w = 0.0;     // metered AC wall power
  double duty_pct = 0.0;   // fan PWM duty
  double freq_ghz = 0.0;   // OS-selected CPU frequency
  bool autonomous = false; // node is in coordinator-loss fail-safe
};

struct JoinRequest {
  std::uint32_t node = 0;
};

struct JoinAck {
  /// Coordinator restart counter; lets an agent tell a resumed coordinator
  /// from a reordered stale ack.
  std::uint32_t epoch = 0;
};

struct PolicyUpdate {
  int pp = 50;  // core::PolicyParam value, [1, 100]
};

struct PowerBudget {
  double watts = 0.0;  // <= 0: uncapped (release)
};

/// Rack → room aggregate, one per rack control round.
struct RackReport {
  std::uint32_t rack = 0;
  double t_s = 0.0;
  double power_w = 0.0;     // sum of member wall watts
  std::uint32_t members = 0;
};

/// The one wire unit. POD end to end: a queue transport copies it, a future
/// socket transport can memcpy it into a frame.
struct Message {
  MsgType type = MsgType::kNone;
  Endpoint from = kNoEndpoint;
  Endpoint to = kNoEndpoint;
  /// Stamped by the transport on send, monotonic per transport; lets tests
  /// and traces name an exact message ("seq 17 was dropped").
  std::uint64_t seq = 0;
  union {
    TelemetryReport telemetry;
    JoinRequest join;
    JoinAck join_ack;
    PolicyUpdate policy;
    PowerBudget budget;
    RackReport rack_report;
  };

  Message() : telemetry{} {}
};

[[nodiscard]] inline Message make_telemetry(const TelemetryReport& report) {
  Message m;
  m.type = MsgType::kTelemetryReport;
  m.telemetry = report;
  return m;
}

[[nodiscard]] inline Message make_join_request(std::uint32_t node) {
  Message m;
  m.type = MsgType::kJoinRequest;
  m.join = JoinRequest{node};
  return m;
}

[[nodiscard]] inline Message make_join_ack(std::uint32_t epoch) {
  Message m;
  m.type = MsgType::kJoinAck;
  m.join_ack = JoinAck{epoch};
  return m;
}

[[nodiscard]] inline Message make_policy_update(int pp) {
  Message m;
  m.type = MsgType::kPolicyUpdate;
  m.policy = PolicyUpdate{pp};
  return m;
}

[[nodiscard]] inline Message make_power_budget(double watts) {
  Message m;
  m.type = MsgType::kPowerBudget;
  m.budget = PowerBudget{watts};
  return m;
}

[[nodiscard]] inline Message make_rack_report(const RackReport& report) {
  Message m;
  m.type = MsgType::kRackReport;
  m.rack_report = report;
  return m;
}

}  // namespace thermctl::cluster::ctrl
