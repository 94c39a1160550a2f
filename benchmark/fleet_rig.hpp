// The fleet rig shared by the untraced and traced fleet runs.
//
// One rig type serves both runs so they simulate the same thing: the untraced
// run hands the rig to cluster::Engine (make_engine), the traced run steps
// the very same kind of rig through the layers' public calls (fleet.cpp).
// Everything the engine would schedule as a periodic task is kept here as
// an ordered task list, so both runs register the same closures in the same
// order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/coordinator/coordinator.hpp"
#include "cluster/engine.hpp"
#include "cluster/room.hpp"
#include "core/control_bank.hpp"
#include "obs/alerts.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/rollup.hpp"
#include "obs/spill.hpp"
#include "obs/trace.hpp"

namespace thermbench {

struct FleetSpec {
  std::size_t nodes = 0;
  int workers = 1;
  long steps = 0;
  /// false: one ControlBank of unified controllers, nothing else.
  /// true: separate fan and tDVFS families, room model + control plane
  /// (racks of 64), trace rings + spill + rollup + alerts + OpenMetrics.
  bool datacenter = false;
  std::uint64_t seed = 1;
};

/// Which layer a periodic task belongs to (the traced run times each).
enum class TaskLayer { kControl, kSpill, kRollup, kAlerts, kRender };

struct RigTask {
  TaskLayer layer;
  thermctl::Seconds period;
  std::function<void(thermctl::SimTime)> fn;
};

/// Discards spilled events but counts them (the spill path runs in full).
class CountingSpillSink : public thermctl::obs::SpillSink {
 public:
  void append(const thermctl::obs::TraceEvent* events, std::size_t count) override;
  void finalize(std::uint32_t node_count, std::uint64_t event_count) override;
  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  [[nodiscard]] bool finalized() const { return finalized_; }

 private:
  std::uint64_t appended_ = 0;
  bool finalized_ = false;
};

struct RigSetup {
  double cluster_s = 0.0;
  double controllers_s = 0.0;
  double plane_s = 0.0;
  double telemetry_s = 0.0;
};

struct FleetRig {
  explicit FleetRig(const FleetSpec& spec);
  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;

  /// Engine wired to the rig: room, plane, load hook, metrics, every task.
  [[nodiscard]] std::unique_ptr<thermctl::cluster::Engine> make_engine();
  [[nodiscard]] thermctl::cluster::EngineConfig engine_config() const;

  /// Per-node controller event counts, the controller part of sim_digest.
  [[nodiscard]] std::vector<std::uint64_t> controller_events();

  FleetSpec spec;
  RigSetup setup;
  double room_budget_w = 0.0;  // 0 unless datacenter

  std::unique_ptr<thermctl::cluster::Cluster> cluster;
  std::unique_ptr<thermctl::core::ControlBank> bank;
  std::unique_ptr<thermctl::cluster::RoomModel> room;
  std::unique_ptr<thermctl::cluster::ctrl::ControlPlane> plane;
  std::unique_ptr<thermctl::obs::MetricsRegistry> registry;
  std::unique_ptr<thermctl::obs::RunTrace> trace;
  CountingSpillSink spill_sink;
  std::unique_ptr<thermctl::obs::TraceSpiller> spiller;
  std::unique_ptr<thermctl::obs::FleetRollup> rollup;
  std::unique_ptr<thermctl::obs::AlertWatchdog> watchdog;
  std::uint64_t renders = 0;
  std::uint64_t render_bytes = 0;

  thermctl::cluster::Engine::FleetLoadFn load;
  std::vector<RigTask> tasks;
};

}  // namespace thermbench
