#include "cluster/coordinator/coordinator.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sysfs/cpufreq.hpp"

namespace thermctl::cluster::ctrl {
namespace {

/// A member whose wall power is below `kRaiseMargin · share` gets its cap
/// raised one p-state (hysteresis against cap flapping).
constexpr double kRaiseMargin = 0.8;

// Endpoint layout: agents [0, N), racks [N, N+R), room at N+R.
std::size_t rack_count_for(std::size_t nodes, std::size_t nodes_per_rack) {
  if (nodes_per_rack == 0 || nodes_per_rack >= nodes) {
    return 1;
  }
  return (nodes + nodes_per_rack - 1) / nodes_per_rack;
}

std::vector<Endpoint> rack_endpoints(std::size_t nodes, std::size_t racks) {
  std::vector<Endpoint> eps;
  eps.reserve(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    eps.push_back(static_cast<Endpoint>(nodes + r));
  }
  return eps;
}

}  // namespace

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kNone:
      return "none";
    case MsgType::kTelemetryReport:
      return "telemetry_report";
    case MsgType::kJoinRequest:
      return "join_request";
    case MsgType::kJoinAck:
      return "join_ack";
    case MsgType::kPolicyUpdate:
      return "policy_update";
    case MsgType::kPowerBudget:
      return "power_budget";
    case MsgType::kRackReport:
      return "rack_report";
  }
  return "unknown";
}

// ---------------------------------------------------------------- NodeAgent

NodeAgent::NodeAgent(Node& node, std::size_t index, Endpoint self, Endpoint rack,
                     const PlaneConfig& config, PlaneStats& stats)
    : node_(node),
      index_(index),
      self_(self),
      rack_(rack),
      config_(config),
      stats_(stats),
      join_backoff_(config.period) {
  // Resolve the p-state ladder once, through the same sysfs surface the cap
  // actuation uses (file order: max first, matching CpuDevice's pstates).
  for (const double ghz : node_.cpufreq().available_ghz()) {
    ladder_khz_.push_back(sysfs::CpufreqPolicy::to_khz(GigaHertz{ghz}));
  }
  THERMCTL_ASSERT(!ladder_khz_.empty(), "node has no p-state ladder");
}

void NodeAgent::tick(SimTime now, QueueTransport& transport) {
  drain(now, transport);

  // Coordinator-stall fail-safe: the budget heartbeat went quiet.
  if (joined_ && (now - last_heard_).value() > config_.stall_timeout.value()) {
    enter_failsafe(now);
  }

  // (Re)join with backoff while unattached.
  if (!joined_ && now >= next_join_) {
    Message join = make_join_request(static_cast<std::uint32_t>(index_));
    join.from = self_;
    join.to = rack_;
    transport.send(join);
    ++stats_.join_requests;
    next_join_ = now + join_backoff_;
    join_backoff_ =
        Seconds{std::min(join_backoff_.value() * 2.0, 8.0 * config_.period.value())};
  }

  // Telemetry every round, joined or not — the out-of-band plane keeps
  // observing even while autonomous (and even when the host has THERMTRIP
  // halted: the BMC stays powered). Reads are const-only so a passive plane
  // perturbs nothing.
  TelemetryReport report;
  report.node = static_cast<std::uint32_t>(index_);
  report.t_s = now.seconds();
  report.sensor_c = node_.sensor_reading().value();
  report.die_c = node_.die_temperature().value();
  report.wall_w = node_.wall_power().value();
  report.duty_pct = node_.fan().duty().percent();
  report.freq_ghz = node_.cpu().frequency().value();
  report.autonomous = autonomous_;
  Message m = make_telemetry(report);
  m.from = self_;
  m.to = rack_;
  transport.send(m);
  ++stats_.telemetry_sent;
}

void NodeAgent::drain(SimTime now, QueueTransport& transport) {
  Message m;
  while (transport.poll(self_, m)) {
    switch (m.type) {
      case MsgType::kJoinAck: {
        last_heard_ = now;
        if (!joined_) {
          joined_ = true;
          autonomous_ = false;
          join_backoff_ = config_.period;
          if (failsafed_) {
            failsafed_ = false;
            ++stats_.failsafe_exits;
            THERMCTL_TRACE_EMIT(
                trace_, (obs::TraceEvent{.t_s = now.seconds(),
                                         .type = obs::TraceEventType::kPlaneFailsafeExit,
                                         .subsystem = obs::TraceSubsystem::kPlane,
                                         .i0 = static_cast<std::int64_t>(m.join_ack.epoch)}));
          }
        }
        break;
      }
      case MsgType::kPowerBudget:
        last_heard_ = now;
        apply_budget(m.budget.watts, now);
        break;
      case MsgType::kPolicyUpdate:
        last_heard_ = now;
        apply_policy(m.policy.pp);
        break;
      default:
        break;  // stray upstream-direction traffic; drop
    }
  }
}

void NodeAgent::apply_budget(double watts, SimTime now) {
  ++stats_.budgets_received;
  budget_w_ = watts;
  if (config_.passive || node_.halted()) {
    return;
  }
  const std::size_t before = cap_index_;
  const double wall = node_.wall_power().value();
  if (watts <= 0.0) {
    if (cap_index_ != 0) {
      release_cap();
    }
  } else if (wall > watts && cap_index_ + 1 < ladder_khz_.size()) {
    // Over budget: one p-state down per round — the same gradual actuation
    // discipline as tDVFS, so a transient spike doesn't slam the node to
    // its floor frequency.
    ++cap_index_;
    actuate_cap();
    ++stats_.caps_lowered;
  } else if (wall < watts * kRaiseMargin && cap_index_ > 0) {
    --cap_index_;
    actuate_cap();
    ++stats_.caps_raised;
  }
  THERMCTL_TRACE_EMIT(
      trace_,
      (obs::TraceEvent{.t_s = now.seconds(),
                       .type = obs::TraceEventType::kPlaneBudget,
                       .subsystem = obs::TraceSubsystem::kPlane,
                       .flags = cap_index_ != before ? obs::kTraceFlagChanged
                                                     : obs::kTraceFlagNone,
                       .i0 = static_cast<std::int64_t>(ladder_khz_[cap_index_]),
                       .a = watts,
                       .b = wall}));
}

void NodeAgent::apply_policy(int pp) {
  if (config_.passive || !policy_sink_) {
    return;
  }
  const int clamped = std::clamp(pp, 1, 100);
  policy_sink_(clamped);
  ++stats_.policy_updates_applied;
  THERMCTL_TRACE_EMIT(trace_,
                      (obs::TraceEvent{.t_s = trace_ != nullptr ? trace_->time_s() : 0.0,
                                       .type = obs::TraceEventType::kPlanePolicyUpdate,
                                       .subsystem = obs::TraceSubsystem::kPlane,
                                       .i0 = clamped}));
}

void NodeAgent::enter_failsafe(SimTime now) {
  joined_ = false;
  autonomous_ = true;
  failsafed_ = true;
  ++stats_.failsafe_entries;
  budget_w_ = 0.0;
  if (!config_.passive && cap_index_ != 0 && !node_.halted()) {
    release_cap();
  }
  join_backoff_ = config_.period;
  next_join_ = now + join_backoff_;
  THERMCTL_TRACE_EMIT(trace_,
                      (obs::TraceEvent{.t_s = now.seconds(),
                                       .type = obs::TraceEventType::kPlaneFailsafeEnter,
                                       .subsystem = obs::TraceSubsystem::kPlane,
                                       .a = (now - last_heard_).value()}));
}

void NodeAgent::release_cap() {
  cap_index_ = 0;
  actuate_cap();
  ++stats_.caps_released;
}

void NodeAgent::force_release_cap() {
  if (config_.passive || cap_index_ == 0 || node_.halted()) {
    return;
  }
  release_cap();
}

void NodeAgent::actuate_cap() {
  const long target = ladder_khz_[cap_index_];
  if (node_.cpufreq().cur_khz() != target) {
    node_.cpufreq().set_khz(target);
  }
}

// --------------------------------------------------------- RackCoordinator

RackCoordinator::RackCoordinator(std::uint32_t rack_id, Endpoint self, Endpoint room,
                                 const PlaneConfig& config, PlaneStats& stats)
    : rack_id_(rack_id),
      self_(self),
      room_(room),
      config_(config),
      stats_(stats),
      budget_w_(config.rack_budget_w) {}

double RackCoordinator::reported_power_w() const {
  double total = 0.0;
  for (const auto& [ep, member] : members_) {
    if (member.have_report) {
      total += member.last.wall_w;
    }
  }
  return total;
}

void RackCoordinator::drain(SimTime /*now*/, QueueTransport& transport) {
  Message m;
  while (transport.poll(self_, m)) {
    switch (m.type) {
      case MsgType::kJoinRequest: {
        Member& member = members_[m.from];
        member.node = m.join.node;
        Message ack = make_join_ack(epoch_);
        ack.from = self_;
        ack.to = m.from;
        transport.send(ack);
        ++stats_.join_acks;
        break;
      }
      case MsgType::kTelemetryReport: {
        auto it = members_.find(m.from);
        if (it != members_.end()) {
          it->second.last = m.telemetry;
          it->second.have_report = true;
          ++stats_.telemetry_received;
        }
        // Telemetry from a non-member is dropped: the node's join was lost
        // and its backoff retry will restore membership.
        break;
      }
      case MsgType::kPowerBudget:
        budget_w_ = m.budget.watts;  // room override; <= 0 lifts the cap
        break;
      case MsgType::kPolicyUpdate:
        pending_pp_ = m.policy.pp;
        have_pending_pp_ = true;
        break;
      default:
        break;
    }
  }
}

void RackCoordinator::tick(SimTime now, QueueTransport& transport) {
  drain(now, transport);

  const double total = reported_power_w();
  if (budget_w_ > 0.0 && total > budget_w_) {
    ++stats_.rack_over_budget_rounds;
  }

  // Deal every member its budget slice each round — proportional to its
  // reported draw so heavy nodes keep headroom and idle nodes release
  // theirs. The budget message doubles as the coordinator heartbeat, so it
  // goes out even when the rack is uncapped (watts <= 0 = "no cap").
  for (const auto& [ep, member] : members_) {
    double share = 0.0;
    if (budget_w_ > 0.0) {
      share = (total > 0.0 && member.have_report)
                  ? budget_w_ * member.last.wall_w / total
                  : budget_w_ / static_cast<double>(members_.size());
    }
    Message budget = make_power_budget(share);
    budget.from = self_;
    budget.to = ep;
    transport.send(budget);
    ++stats_.budgets_sent;
    if (have_pending_pp_) {
      Message policy = make_policy_update(pending_pp_);
      policy.from = self_;
      policy.to = ep;
      transport.send(policy);
    }
  }
  have_pending_pp_ = false;

  RackReport report;
  report.rack = rack_id_;
  report.t_s = now.seconds();
  report.power_w = total;
  report.members = static_cast<std::uint32_t>(members_.size());
  Message up = make_rack_report(report);
  up.from = self_;
  up.to = room_;
  transport.send(up);
}

// --------------------------------------------------------- RoomCoordinator

RoomCoordinator::RoomCoordinator(Endpoint self, std::vector<Endpoint> racks,
                                 const PlaneConfig& config, PlaneStats& stats,
                                 const RoomModel* room)
    : self_(self), racks_(std::move(racks)), config_(config), stats_(stats), room_(room) {}

void RoomCoordinator::broadcast_policy(int pp) {
  pending_pp_ = pp;
  have_pending_pp_ = true;
}

double RoomCoordinator::reported_power_w() const {
  double total = 0.0;
  for (const auto& [ep, report] : reports_) {
    total += report.power_w;
  }
  return total;
}

void RoomCoordinator::tick(SimTime /*now*/, QueueTransport& transport) {
  Message m;
  while (transport.poll(self_, m)) {
    if (m.type == MsgType::kRackReport) {
      reports_[m.from] = m.rack_report;
    }
  }

  if (have_pending_pp_) {
    for (const Endpoint ep : racks_) {
      Message policy = make_policy_update(pending_pp_);
      policy.from = self_;
      policy.to = ep;
      transport.send(policy);
    }
    have_pending_pp_ = false;
  }

  if (config_.room_budget_w <= 0.0) {
    return;
  }
  // Thermal tightening: when the room runs hotter than the operator's inlet
  // rise cap, shrink the dealt budget by the ratio — the plane's version of
  // the paper's room_feedback Pp reduction, acting on power instead.
  double scale = 1.0;
  if (room_ != nullptr && config_.max_inlet_rise_c > 0.0) {
    const double rise = room_->mixed_rise().value();
    if (rise > config_.max_inlet_rise_c) {
      scale = config_.max_inlet_rise_c / rise;
    }
  }
  last_scale_ = scale;
  const double budget = config_.room_budget_w * scale;
  const double total = reported_power_w();
  for (const Endpoint ep : racks_) {
    double share = budget / static_cast<double>(racks_.size());
    auto it = reports_.find(ep);
    if (total > 0.0 && it != reports_.end() && it->second.power_w > 0.0) {
      share = budget * it->second.power_w / total;
    }
    Message msg = make_power_budget(share);
    msg.from = self_;
    msg.to = ep;
    transport.send(msg);
    ++stats_.budgets_sent;
  }
}

// ------------------------------------------------------------ ControlPlane

ControlPlane::ControlPlane(Cluster& cluster, PlaneConfig config, const RoomModel* room)
    : config_(config),
      transport_(cluster.size() + rack_count_for(cluster.size(), config.nodes_per_rack) + 1,
                 config.transport),
      room_coord_(static_cast<Endpoint>(
                      cluster.size() + rack_count_for(cluster.size(), config.nodes_per_rack)),
                  rack_endpoints(cluster.size(),
                                 rack_count_for(cluster.size(), config.nodes_per_rack)),
                  config_, stats_, room),
      schedule_(static_cast<std::int64_t>(config.period.value() * 1e6)) {
  THERMCTL_ASSERT(config_.period.value() > 0.0, "plane period must be positive");
  THERMCTL_ASSERT(config_.stall_timeout.value() > config_.period.value(),
                  "stall timeout must exceed the plane period");
  const std::size_t nodes = cluster.size();
  const std::size_t racks = rack_count_for(nodes, config_.nodes_per_rack);
  const std::size_t per_rack = config_.nodes_per_rack == 0 ? nodes : config_.nodes_per_rack;
  const Endpoint room_ep = static_cast<Endpoint>(nodes + racks);

  agents_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const Endpoint rack_ep = static_cast<Endpoint>(nodes + i / per_rack);
    agents_.emplace_back(cluster.node(i), i, static_cast<Endpoint>(i), rack_ep, config_,
                         stats_);
  }
  racks_.reserve(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    racks_.emplace_back(static_cast<std::uint32_t>(r), static_cast<Endpoint>(nodes + r),
                        room_ep, config_, stats_);
  }
  rack_stalled_.assign(racks, false);
}

void ControlPlane::set_policy_sink(std::size_t i, std::function<void(int)> sink) {
  THERMCTL_ASSERT(i < agents_.size(), "policy sink node index out of range");
  agents_[i].set_policy_sink(std::move(sink));
}

void ControlPlane::set_trace(obs::RunTrace* trace) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    agents_[i].set_trace(trace != nullptr ? &trace->ring(i) : nullptr);
  }
}

void ControlPlane::set_metrics(obs::MetricsShard* shard) {
  if (shard == nullptr) {
    m_rounds_ = m_messages_ = m_drops_ = m_budgets_ = m_failsafes_ = nullptr;
    return;
  }
  m_rounds_ = &shard->counter("plane.rounds");
  m_messages_ = &shard->counter("plane.messages_sent");
  m_drops_ = &shard->counter("plane.messages_dropped");
  m_budgets_ = &shard->counter("plane.budgets_sent");
  m_failsafes_ = &shard->counter("plane.failsafe_entries");
}

void ControlPlane::broadcast_policy(int pp) { room_coord_.broadcast_policy(pp); }

void ControlPlane::failsafe_release_all() {
  for (NodeAgent& agent : agents_) {
    agent.force_release_cap();
  }
}

void ControlPlane::on_round(SimTime now) {
  bool due = false;
  while (schedule_.due(now)) {
    due = true;  // collapse any backlog into one round at `now`
  }
  if (!due) {
    return;
  }
  ++stats_.rounds;
  // Fixed round order = deterministic message flow: agents report (node
  // order), racks aggregate and deal, the room re-budgets the racks. Room
  // decisions reach agents on the next round — a deliberate one-round lag,
  // matching the up-then-down latency a real hierarchy has.
  for (NodeAgent& agent : agents_) {
    agent.tick(now, transport_);
  }
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    if (!rack_stalled_[r]) {
      racks_[r].tick(now, transport_);
    }
  }
  room_coord_.tick(now, transport_);

  if (m_rounds_ != nullptr) {
    m_rounds_->inc();
    m_messages_->add(transport_.sent() - seen_messages_);
    seen_messages_ = transport_.sent();
    m_drops_->add(transport_.dropped() - seen_drops_);
    seen_drops_ = transport_.dropped();
    m_budgets_->add(stats_.budgets_sent - seen_budgets_);
    seen_budgets_ = stats_.budgets_sent;
    m_failsafes_->add(stats_.failsafe_entries - seen_failsafes_);
    seen_failsafes_ = stats_.failsafe_entries;
  }
}

void ControlPlane::stall_rack(std::size_t rack) {
  THERMCTL_ASSERT(rack < racks_.size(), "stall of unknown rack");
  rack_stalled_[rack] = true;
}

void ControlPlane::resume_rack(std::size_t rack) {
  THERMCTL_ASSERT(rack < racks_.size(), "resume of unknown rack");
  rack_stalled_[rack] = false;
}

std::size_t ControlPlane::rack_of(std::size_t node) const {
  THERMCTL_ASSERT(node < agents_.size(), "rack_of of unknown node");
  const std::size_t per_rack =
      config_.nodes_per_rack == 0 ? agents_.size() : config_.nodes_per_rack;
  return node / per_rack;
}

}  // namespace thermctl::cluster::ctrl
