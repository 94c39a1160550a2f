#include "obs/trace.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace thermctl::obs {

std::string_view to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kNone:
      return "none";
    case TraceEventType::kWindowRound:
      return "window_round";
    case TraceEventType::kModeDecision:
      return "mode_decision";
    case TraceEventType::kFanRetarget:
      return "fan_retarget";
    case TraceEventType::kTdvfsTrigger:
      return "tdvfs_trigger";
    case TraceEventType::kTdvfsRestore:
      return "tdvfs_restore";
    case TraceEventType::kSensorClassified:
      return "sensor_classified";
    case TraceEventType::kFailsafeEnter:
      return "failsafe_enter";
    case TraceEventType::kFailsafeExit:
      return "failsafe_exit";
    case TraceEventType::kDvfsHoldEnter:
      return "dvfs_hold_enter";
    case TraceEventType::kDvfsHoldExit:
      return "dvfs_hold_exit";
    case TraceEventType::kI2cRetry:
      return "i2c_retry";
    case TraceEventType::kI2cExhausted:
      return "i2c_exhausted";
    case TraceEventType::kPlaneBudget:
      return "plane_budget";
    case TraceEventType::kPlaneFailsafeEnter:
      return "plane_failsafe_enter";
    case TraceEventType::kPlaneFailsafeExit:
      return "plane_failsafe_exit";
    case TraceEventType::kPlanePolicyUpdate:
      return "plane_policy_update";
    case TraceEventType::kAlertFire:
      return "alert_fire";
    case TraceEventType::kAlertClear:
      return "alert_clear";
  }
  return "?";
}

std::string_view to_string(TraceSubsystem subsystem) {
  switch (subsystem) {
    case TraceSubsystem::kNone:
      return "none";
    case TraceSubsystem::kFan:
      return "fan";
    case TraceSubsystem::kTdvfs:
      return "tdvfs";
    case TraceSubsystem::kIdle:
      return "idle";
    case TraceSubsystem::kEngine:
      return "engine";
    case TraceSubsystem::kI2c:
      return "i2c";
    case TraceSubsystem::kPlane:
      return "plane";
    case TraceSubsystem::kAlert:
      return "alert";
  }
  return "?";
}

TraceRing::TraceRing(std::uint16_t node, std::size_t capacity) : node_(node) {
  THERMCTL_ASSERT(capacity >= 1, "trace ring needs capacity");
  buffer_.resize(capacity);
}

std::size_t TraceRing::size() const {
  return emitted_ < buffer_.size() ? static_cast<std::size_t>(emitted_) : buffer_.size();
}

void TraceRing::emit(TraceEvent ev) {
  ev.node = node_;
  if (ev.t_s == 0.0) {
    ev.t_s = now_s_;
  }
  buffer_[head_] = ev;
  head_ = head_ + 1 == buffer_.size() ? 0 : head_ + 1;
  ++emitted_;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest event sits at head_ once the ring has wrapped, at 0 before.
  const std::size_t start = emitted_ < buffer_.size() ? 0 : head_;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(buffer_[(start + k) % buffer_.size()]);
  }
  return out;
}

std::uint64_t TraceRing::read_new(std::uint64_t cursor, std::size_t max_events,
                                  std::vector<TraceEvent>& out, std::uint64_t& lost) const {
  // Oldest absolute index still resident in the buffer.
  const std::uint64_t oldest =
      emitted_ > buffer_.size() ? emitted_ - buffer_.size() : 0;
  if (cursor < oldest) {
    lost += oldest - cursor;
    cursor = oldest;
  }
  std::uint64_t n = emitted_ - cursor;
  if (max_events != 0 && n > max_events) {
    n = max_events;
  }
  // No exact reserve: callers append many rings into one reused batch, and
  // reserving size + n per ring would reallocate the whole batch every call.
  for (std::uint64_t k = 0; k < n; ++k) {
    // Absolute index j was written at slot j % capacity (head_ starts at 0
    // and advances one slot per emit).
    out.push_back(buffer_[static_cast<std::size_t>((cursor + k) % buffer_.size())]);
  }
  return cursor + n;
}

void TraceRing::clear() {
  head_ = 0;
  emitted_ = 0;
}

RunTrace::RunTrace(std::size_t node_count, std::size_t ring_capacity) {
  THERMCTL_ASSERT(node_count >= 1, "run trace needs nodes");
  THERMCTL_ASSERT(node_count <= 0xffff, "node id must fit the event record");
  rings_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    rings_.emplace_back(static_cast<std::uint16_t>(i), ring_capacity);
  }
}

std::vector<TraceEvent> RunTrace::merged_events() const {
  std::vector<TraceEvent> all;
  all.reserve(static_cast<std::size_t>(total_emitted() - total_dropped()));
  for (const TraceRing& ring : rings_) {
    const std::vector<TraceEvent> evs = ring.events();
    all.insert(all.end(), evs.begin(), evs.end());
  }
  // Stable sort keeps each node's emission order for equal timestamps; the
  // node key makes cross-node order deterministic too.
  std::stable_sort(all.begin(), all.end(), [](const TraceEvent& x, const TraceEvent& y) {
    if (x.t_s != y.t_s) return x.t_s < y.t_s;
    return x.node < y.node;
  });
  return all;
}

std::uint64_t RunTrace::total_emitted() const {
  std::uint64_t n = 0;
  for (const TraceRing& ring : rings_) {
    n += ring.emitted();
  }
  return n;
}

std::uint64_t RunTrace::total_dropped() const {
  std::uint64_t n = 0;
  for (const TraceRing& ring : rings_) {
    n += ring.dropped();
  }
  return n;
}

std::vector<std::uint64_t> RunTrace::dropped_by_node() const {
  std::vector<std::uint64_t> out;
  out.reserve(rings_.size());
  for (const TraceRing& ring : rings_) {
    out.push_back(ring.dropped());
  }
  return out;
}

}  // namespace thermctl::obs
