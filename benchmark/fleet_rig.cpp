#include "fleet_rig.hpp"

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "host.hpp"
#include "obs/openmetrics.hpp"

namespace thermbench {

namespace tc = thermctl::cluster;

namespace {

constexpr std::size_t kNodesPerRack = 64;
// Per-node series at fleet scale cost O(nodes x samples) memory; a 1 s
// record period keeps the 100k-node run near 2 GB resident.
constexpr double kRecordPeriodS = 1.0;
constexpr double kTelemetryIntervalS = 0.5;  // spill drain, rollup, render
constexpr std::size_t kRingCapacity = 64;
constexpr int kPp = 50;
// Load: util_i(t) = kLoadMean + kLoadAmp * sin(kLoadOmega * t + phase_i).
constexpr double kLoadMean = 0.7;
constexpr double kLoadAmp = 0.3;
constexpr double kLoadOmega = 0.7;
// Room: the settled full-load draw of the whole fleet lifts the mixed inlet
// by kFullLoadRiseC; the plane budgets the room at kRoomBudgetFrac of that
// draw and tightens above kMaxInletRiseC, so caps actuate.
constexpr double kFullLoadRiseC = 8.0;
constexpr double kRoomBudgetFrac = 0.8;
constexpr double kMaxInletRiseC = 5.0;
constexpr double kMaxAisleOffsetC = 2.0;

/// Seeded per-node load phases behind a batched fleet load hook. The
/// angle-addition form keeps the row fill a vectorizable multiply-add sweep.
tc::Engine::FleetLoadFn make_load(std::size_t nodes, thermctl::Rng& rng) {
  auto phase_sin = std::make_shared<std::vector<double>>(nodes);
  auto phase_cos = std::make_shared<std::vector<double>>(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    (*phase_sin)[i] = std::sin(phase);
    (*phase_cos)[i] = std::cos(phase);
  }
  return [phase_sin, phase_cos](thermctl::SimTime t, double* util, const std::uint8_t* halted,
                                std::size_t count) {
    const double s = std::sin(t.seconds() * kLoadOmega);
    const double c = std::cos(t.seconds() * kLoadOmega);
    const double* ps = phase_sin->data();
    const double* pc = phase_cos->data();
    for (std::size_t i = 0; i < count; ++i) {
      util[i] = halted[i] != 0 ? 0.0 : kLoadMean + kLoadAmp * (s * pc[i] + c * ps[i]);
    }
  };
}

}  // namespace

void CountingSpillSink::append(const thermctl::obs::TraceEvent* /*events*/, std::size_t count) {
  appended_ += count;
}

void CountingSpillSink::finalize(std::uint32_t /*node_count*/, std::uint64_t /*event_count*/) {
  finalized_ = true;
}

FleetRig::FleetRig(const FleetSpec& fleet_spec) : spec(fleet_spec) {
  using thermctl::Seconds;
  using thermctl::SimTime;
  using thermctl::Utilization;
  thermctl::Rng rng{spec.seed * 0x9e3779b97f4a7c15ULL + 17};

  auto t0 = Clock::now();
  tc::NodeParams params;
  params.seed = spec.seed;
  cluster = std::make_unique<tc::Cluster>(spec.nodes, params, true);
  double full_load_node_w = 0.0;
  if (spec.datacenter) {
    // Settled full-load draw of one node; the fleet is homogeneous, so the
    // fleet's is N times it.
    tc::Node& probe = cluster->node(0);
    probe.set_utilization(Utilization{1.0});
    probe.settle();
    full_load_node_w = probe.wall_power().value();
    // The machines idle before the load starts, as in run_experiment: the
    // room and the plane budget are calibrated against settled draw.
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      cluster->node(i).set_utilization(Utilization{0.02});
    }
    cluster->settle_all();
  }
  // The 100k fleet starts cold, as the scaling ladder's rigs do: settling
  // 100k nodes one by one takes ~11 s, three times per run.
  load = make_load(spec.nodes, rng);
  auto t1 = Clock::now();
  setup.cluster_s = seconds_between(t0, t1);

  bank = std::make_unique<thermctl::core::ControlBank>(spec.nodes,
                                                       cluster->fleet()->sensor_last_data());
  const Seconds sample_period = params.sample_period;
  thermctl::core::ControlBank* b = bank.get();
  if (spec.datacenter) {
    thermctl::core::FanControlConfig fan_cfg;
    fan_cfg.pp = thermctl::core::PolicyParam{kPp};
    thermctl::core::TdvfsConfig tdvfs_cfg;
    tdvfs_cfg.pp = thermctl::core::PolicyParam{kPp};
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      bank->emplace_fan(i, cluster->node(i).hwmon(), fan_cfg);
    }
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      bank->emplace_tdvfs(i, cluster->node(i).hwmon(), cluster->node(i).cpufreq(), tdvfs_cfg);
    }
    // Family order as run_experiment registers them: fans, then tDVFS.
    tasks.push_back({TaskLayer::kControl, sample_period, [b](SimTime now) { b->tick_fans(now); }});
    tasks.push_back(
        {TaskLayer::kControl, sample_period, [b](SimTime now) { b->tick_tdvfs(now); }});
  } else {
    thermctl::core::UnifiedConfig cfg;
    cfg.pp = thermctl::core::PolicyParam{kPp};
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      bank->emplace_unified(i, cluster->node(i).hwmon(), cluster->node(i).cpufreq(), cfg);
    }
    tasks.push_back(
        {TaskLayer::kControl, sample_period, [b](SimTime now) { b->tick_unified(now); }});
  }
  auto t2 = Clock::now();
  setup.controllers_s = seconds_between(t1, t2);

  if (!spec.datacenter) {
    return;
  }

  const double full_load_fleet_w = full_load_node_w * static_cast<double>(spec.nodes);
  tc::RoomParams room_params;
  room_params.recirculation_k_per_w = kFullLoadRiseC / full_load_fleet_w;
  room = std::make_unique<tc::RoomModel>(spec.nodes, room_params);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    room->set_node_offset(i, thermctl::CelsiusDelta{rng.uniform(0.0, kMaxAisleOffsetC)});
  }
  room->settle(cluster->total_power());
  room_budget_w = kRoomBudgetFrac * full_load_fleet_w;
  tc::ctrl::PlaneConfig plane_cfg;
  plane_cfg.nodes_per_rack = kNodesPerRack;
  plane_cfg.room_budget_w = room_budget_w;
  plane_cfg.max_inlet_rise_c = kMaxInletRiseC;
  plane = std::make_unique<tc::ctrl::ControlPlane>(*cluster, plane_cfg, room.get());
  auto t3 = Clock::now();
  setup.plane_s = seconds_between(t2, t3);

  registry = std::make_unique<thermctl::obs::MetricsRegistry>(1);
  plane->set_metrics(&registry->shard(0));
  trace = std::make_unique<thermctl::obs::RunTrace>(spec.nodes, kRingCapacity);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    cluster->node(i).fan_driver().set_trace(&trace->ring(i));
    bank->fan(i).set_trace(&trace->ring(i));
    bank->tdvfs(i).set_trace(&trace->ring(i));
  }
  plane->set_trace(trace.get());

  thermctl::obs::SpillConfig spill_cfg;
  spill_cfg.period_s = kTelemetryIntervalS;
  spiller = std::make_unique<thermctl::obs::TraceSpiller>(*trace, spill_sink, spill_cfg);
  thermctl::obs::RollupConfig rollup_cfg;
  rollup_cfg.enabled = true;
  rollup_cfg.interval_s = kTelemetryIntervalS;
  rollup_cfg.nodes_per_rack = kNodesPerRack;
  rollup = std::make_unique<thermctl::obs::FleetRollup>(spec.nodes, rollup_cfg);
  watchdog = std::make_unique<thermctl::obs::AlertWatchdog>(
      std::vector<thermctl::obs::AlertRule>{
          {"fleet-power-over-budget", thermctl::obs::AlertKind::kPowerOverBudget,
           room_budget_w, 2.0, false},
          {"rack-hot", thermctl::obs::AlertKind::kMaxTemp, 70.0, 1.0, true},
          {"plane-failsafe-storm", thermctl::obs::AlertKind::kFailsafeRate, 120.0, 0.0, false},
      },
      rollup->rack_count());
  watchdog->set_trace(&trace->ring(0));

  // run_experiment's live-telemetry wiring: the spill periodic, then one
  // rollup -> watchdog -> exposition periodic. The latter is registered as
  // three consecutive tasks at the same period (same instants, same order,
  // nothing in between) so the traced run can time each layer.
  const Seconds interval{kTelemetryIntervalS};
  tasks.push_back({TaskLayer::kSpill, interval,
                   [this](SimTime now) { spiller->drain(now.seconds()); }});
  tasks.push_back({TaskLayer::kRollup, interval, [this](SimTime now) {
                     rollup->begin(now.seconds());
                     for (std::size_t i = 0; i < cluster->size(); ++i) {
                       const tc::Node& node = cluster->node(i);
                       rollup->observe(i, node.die_temperature().value(),
                                       node.wall_power().value(), plane->agent(i).cap_index() > 0,
                                       plane->agent(i).autonomous());
                     }
                     rollup->commit(plane->stats().failsafe_entries, 0);
                   }});
  tasks.push_back({TaskLayer::kAlerts, interval,
                   [this](SimTime now) { watchdog->evaluate(now.seconds(), *rollup); }});
  tasks.push_back({TaskLayer::kRender, interval, [this](SimTime now) {
                     const std::string text = thermctl::obs::render_openmetrics(
                         registry->merged(), rollup.get(), watchdog.get(), &spiller->stats(),
                         now.seconds());
                     ++renders;
                     render_bytes += text.size();
                   }});
  setup.telemetry_s = seconds_since(t3);
}

tc::EngineConfig FleetRig::engine_config() const {
  tc::EngineConfig cfg;
  // Half a step short of `steps` whole steps, so float rounding of the
  // horizon can never add or drop a step.
  cfg.horizon = thermctl::Seconds{(static_cast<double>(spec.steps) - 0.5) * cfg.physics_dt.value()};
  cfg.record_period = thermctl::Seconds{kRecordPeriodS};
  cfg.workers = spec.workers;
  return cfg;
}

std::unique_ptr<tc::Engine> FleetRig::make_engine() {
  auto engine = std::make_unique<tc::Engine>(*cluster, engine_config());
  engine->set_fleet_load_fn(load);
  if (room != nullptr) {
    engine->attach_room(*room);
  }
  if (plane != nullptr) {
    engine->attach_plane(*plane);
  }
  if (registry != nullptr) {
    engine->set_metrics(&registry->shard(0));
  }
  for (const RigTask& task : tasks) {
    engine->add_periodic(task.period, task.fn);
  }
  return engine;
}

std::vector<std::uint64_t> FleetRig::controller_events() {
  std::vector<std::uint64_t> counts;
  counts.reserve(spec.nodes * 2);
  for (std::size_t i = 0; i < bank->fan_count(); ++i) {
    counts.push_back(bank->fan(i).events().size());
  }
  for (std::size_t i = 0; i < bank->tdvfs_count(); ++i) {
    counts.push_back(bank->tdvfs(i).events().size());
  }
  for (std::size_t i = 0; i < bank->unified_count(); ++i) {
    counts.push_back(bank->unified(i).fan().events().size());
    counts.push_back(bank->unified(i).dvfs().events().size());
  }
  return counts;
}

}  // namespace thermbench
