// Hierarchical control plane: node agents, rack coordinators, room coordinator.
//
// The paper's `room_feedback` is one flat loop over four nodes; this plane is
// the tier above it for fleet scale (node → rack → room), in the shape of
// ControlPULP's supervisor/worker hierarchy:
//
//   NodeAgent        one per node, the BMC-resident plane endpoint. Pushes
//                    out-of-band telemetry up, applies budgets (p-state caps)
//                    and Pp re-tunes pushed down, and owns the fail-safe: if
//                    the rack coordinator goes quiet past `stall_timeout`,
//                    the agent releases its cap and reverts the node to
//                    autonomous local control (the paper's per-node unified
//                    controller keeps running throughout), then retries
//                    joining with backoff.
//   RackCoordinator  aggregates member telemetry each plane round, enforces
//                    a shared rack power budget by dealing each member a
//                    proportional slice (the budget message doubles as the
//                    coordinator heartbeat), forwards Pp updates, acks
//                    joins, and reports the rack aggregate upward.
//   RoomCoordinator  sets rack budgets from room state: a total room budget
//                    is dealt to racks in proportion to their reported
//                    draw, tightened by `max_inlet_rise_c / actual rise`
//                    when the RoomModel runs hotter than the operator cap.
//
// Everything runs serially on the engine thread at the BSP barrier, in fixed
// order (agents in node order, then racks, then room), over a QueueTransport
// — so a plane round is deterministic and, in passive mode (telemetry and
// membership flow but nothing actuates), the run is bit-identical to a
// plane-detached run. The differential oracle asserts exactly that pairing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/coordinator/protocol.hpp"
#include "cluster/coordinator/transport.hpp"
#include "cluster/room.hpp"
#include "common/sim_time.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace thermctl::cluster::ctrl {

struct PlaneConfig {
  /// Passive: full message flow (telemetry, joins, budgets, heartbeats) but
  /// agents never actuate — no caps, no policy re-tunes. Bit-identical to
  /// running without the plane; the oracle's kPlanePassiveVsDetached pairing
  /// holds the plane to it.
  bool passive = false;
  /// Nodes per rack coordinator; 0 = one rack holds the whole cluster.
  std::size_t nodes_per_rack = 0;
  /// Initial shared budget per rack, watts of metered wall power; <= 0 means
  /// uncapped until the room coordinator says otherwise.
  double rack_budget_w = 0.0;
  /// Total room budget the room coordinator deals out to racks; <= 0
  /// disables room-level budgeting (racks keep their configured budget).
  double room_budget_w = 0.0;
  /// Operator cap on the room's recirculation rise (°C above CRAC supply).
  /// When the attached RoomModel runs hotter, the room coordinator tightens
  /// rack budgets by the ratio. 0 disables.
  double max_inlet_rise_c = 0.0;
  /// Plane control round period (coordination is slow relative to the 4 Hz
  /// in-band loops, like real BMC polling).
  Seconds period{1.0};
  /// Agent-side coordinator-stall fail-safe: quiet longer than this and the
  /// node reverts to autonomous control.
  Seconds stall_timeout{5.0};
  QueueTransportConfig transport{};
};

/// Aggregate plane counters, shared by every component (single-writer: the
/// whole plane runs on the engine thread).
struct PlaneStats {
  std::uint64_t rounds = 0;
  std::uint64_t telemetry_sent = 0;
  std::uint64_t telemetry_received = 0;
  std::uint64_t join_requests = 0;
  std::uint64_t join_acks = 0;
  std::uint64_t budgets_sent = 0;
  std::uint64_t budgets_received = 0;
  std::uint64_t caps_lowered = 0;
  std::uint64_t caps_raised = 0;
  std::uint64_t caps_released = 0;
  std::uint64_t failsafe_entries = 0;
  std::uint64_t failsafe_exits = 0;
  std::uint64_t policy_updates_applied = 0;
  std::uint64_t rack_over_budget_rounds = 0;
};

/// The per-node plane endpoint (what a BMC-resident agent would run).
class NodeAgent {
 public:
  NodeAgent(Node& node, std::size_t index, Endpoint self, Endpoint rack,
            const PlaneConfig& config, PlaneStats& stats);

  /// Wires the Pp re-tune path: called with the new policy parameter when a
  /// PolicyUpdate lands (active mode only). The experiment layer points this
  /// at the node's controllers' set_policy.
  void set_policy_sink(std::function<void(int)> sink) { policy_sink_ = std::move(sink); }
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

  void tick(SimTime now, QueueTransport& transport);

  /// Drops any active p-state cap immediately (ControlPlane's
  /// failsafe_release_all fans out here). Unlike the budget path this does
  /// not wait for a plane round; the cap re-establishes itself on the next
  /// over-budget round once control resumes.
  void force_release_cap();

  /// True when not under coordinator control (never joined, or fail-safed).
  [[nodiscard]] bool autonomous() const { return autonomous_; }
  [[nodiscard]] bool joined() const { return joined_; }
  /// Current cap as a ladder index (0 = uncapped / max p-state).
  [[nodiscard]] std::size_t cap_index() const { return cap_index_; }

 private:
  void drain(SimTime now, QueueTransport& transport);
  void apply_budget(double watts, SimTime now);
  void apply_policy(int pp);
  void enter_failsafe(SimTime now);
  void release_cap();
  void actuate_cap();

  Node& node_;
  std::size_t index_;
  Endpoint self_;
  Endpoint rack_;
  const PlaneConfig& config_;
  PlaneStats& stats_;
  std::function<void(int)> policy_sink_;
  obs::TraceRing* trace_ = nullptr;

  std::vector<long> ladder_khz_;  // available p-states, max first
  std::size_t cap_index_ = 0;
  double budget_w_ = 0.0;
  bool joined_ = false;
  bool autonomous_ = true;  // until first JoinAck
  bool failsafed_ = false;  // entered failsafe, not yet rejoined
  SimTime last_heard_;
  SimTime next_join_;
  Seconds join_backoff_;
};

/// Aggregates one rack's members under a shared power budget.
class RackCoordinator {
 public:
  RackCoordinator(std::uint32_t rack_id, Endpoint self, Endpoint room,
                  const PlaneConfig& config, PlaneStats& stats);

  void tick(SimTime now, QueueTransport& transport);

  [[nodiscard]] std::uint32_t rack_id() const { return rack_id_; }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] double budget_w() const { return budget_w_; }
  /// Latest aggregate wall power over reporting members.
  [[nodiscard]] double reported_power_w() const;

 private:
  struct Member {
    std::uint32_t node = 0;
    TelemetryReport last{};
    bool have_report = false;
  };

  void drain(SimTime now, QueueTransport& transport);

  std::uint32_t rack_id_;
  Endpoint self_;
  Endpoint room_;
  const PlaneConfig& config_;
  PlaneStats& stats_;
  // Keyed by member endpoint: deterministic iteration = node order.
  std::map<Endpoint, Member> members_;
  double budget_w_;
  std::uint32_t epoch_ = 1;
  int pending_pp_ = 0;
  bool have_pending_pp_ = false;
};

/// Deals the room budget to racks from RoomModel state.
class RoomCoordinator {
 public:
  RoomCoordinator(Endpoint self, std::vector<Endpoint> racks,
                  const PlaneConfig& config, PlaneStats& stats,
                  const RoomModel* room);

  void tick(SimTime now, QueueTransport& transport);

  /// Queues a Pp re-tune for broadcast down the hierarchy next round.
  void broadcast_policy(int pp);

  [[nodiscard]] double reported_power_w() const;
  /// Budget scale applied last round (1 = no thermal tightening).
  [[nodiscard]] double last_scale() const { return last_scale_; }

 private:
  Endpoint self_;
  std::vector<Endpoint> racks_;
  const PlaneConfig& config_;
  PlaneStats& stats_;
  const RoomModel* room_;
  std::map<Endpoint, RackReport> reports_;
  double last_scale_ = 1.0;
  int pending_pp_ = 0;
  bool have_pending_pp_ = false;
};

/// Owns the whole hierarchy + transport; the engine drives it at the BSP
/// barrier via on_round().
class ControlPlane {
 public:
  /// `room` is optional and not owned; with one attached the room
  /// coordinator can tighten budgets on inlet rise.
  ControlPlane(Cluster& cluster, PlaneConfig config, const RoomModel* room = nullptr);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Pp re-tune path for node `i` (experiment wires controllers here).
  void set_policy_sink(std::size_t i, std::function<void(int)> sink);
  /// Per-node decision-trace rings (not owned; nullptr detaches).
  void set_trace(obs::RunTrace* trace);
  /// Plane metrics (engine-style pre-resolved handles; nullptr detaches).
  void set_metrics(obs::MetricsShard* shard);

  /// Queues a Pp broadcast through room → racks → agents.
  void broadcast_policy(int pp);

  /// Hot budget injection (thermctld `set-budget`): rewrites the live room
  /// budget the room coordinator re-reads every round, so the new total
  /// propagates room → racks → agents within one plane period without
  /// dropping control. Watts <= 0 disables room-level budgeting (racks then
  /// keep their configured budget). Engine-thread only, like on_round().
  void set_room_budget(double watts) { config_.room_budget_w = watts; }
  [[nodiscard]] double room_budget_w() const { return config_.room_budget_w; }

  /// Releases every agent's p-state cap at once — the thermctld watchdog's
  /// fail-safe ("never let a wedged daemon leave nodes frequency-capped").
  /// Caller's contract: the engine thread is either the caller or provably
  /// not stepping (a stalled control loop), since this actuates cpufreq.
  /// No-op per agent when passive, already uncapped, or the node is halted.
  void failsafe_release_all();

  /// One plane round, called by the engine every physics step; internally
  /// paced to config.period. Deterministic order: agents in node order,
  /// racks, room.
  void on_round(SimTime now);

  // ---- fault-injection hooks (tests, fuzzer) ----
  /// A stalled rack coordinator stops ticking: joins go unanswered, budget
  /// heartbeats cease, members fail safe after stall_timeout.
  void stall_rack(std::size_t rack);
  void resume_rack(std::size_t rack);

  [[nodiscard]] bool passive() const { return config_.passive; }
  [[nodiscard]] std::size_t rack_count() const { return racks_.size(); }
  /// Rack index owning node `i` (matches the agents' endpoint layout).
  [[nodiscard]] std::size_t rack_of(std::size_t node) const;
  [[nodiscard]] const PlaneStats& stats() const { return stats_; }
  [[nodiscard]] const NodeAgent& agent(std::size_t i) const { return agents_[i]; }
  [[nodiscard]] const RackCoordinator& rack(std::size_t r) const { return racks_[r]; }
  [[nodiscard]] const RoomCoordinator& room_coordinator() const { return room_coord_; }
  [[nodiscard]] QueueTransport& transport() { return transport_; }

 private:
  PlaneConfig config_;
  PlaneStats stats_;
  QueueTransport transport_;
  std::vector<NodeAgent> agents_;
  std::vector<RackCoordinator> racks_;
  RoomCoordinator room_coord_;
  std::vector<bool> rack_stalled_;
  PeriodicSchedule schedule_;
  // Pre-resolved metric handles (all null when no shard attached).
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_drops_ = nullptr;
  obs::Counter* m_budgets_ = nullptr;
  obs::Counter* m_failsafes_ = nullptr;
  std::uint64_t seen_messages_ = 0;
  std::uint64_t seen_drops_ = 0;
  std::uint64_t seen_budgets_ = 0;
  std::uint64_t seen_failsafes_ = 0;
};

}  // namespace thermctl::cluster::ctrl
