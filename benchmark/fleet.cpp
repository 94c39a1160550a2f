// fleet_100k and fleet_16k_dc: one rig, two ways of stepping it.
//
// Untraced: cluster::Engine::run, with a pure-observer periodic at
// physics_dt taking one steady_clock reading per step (step latencies).
// Traced: a FleetRig built the same way, stepped from outside through each
// layer's public calls, in Engine::run's order, with a timer around each:
//   1. the fleet load hook;
//   2. FleetSweep::pre_range, RcBatch::step_range, FleetSweep::post_range,
//      FleetSweep::sample_range on runtime::ThreadPool shards;
//   3. room step and inlets;
//   4. ControlPlane::on_round;
//   5. periodic tasks in registration order (ControlBank ticks, then the
//      spill / rollup / watchdog / render telemetry periodics);
//   6. MetricsRecorder sampling.
// The mirror must reproduce the untraced sim_digest bit for bit; if it does
// not, trace.digest_match reads 0 and its per-layer numbers are invalid. It
// mirrors only the batched-fleet path (FleetSweep present, no app, no
// per-node load functions), which is all these two workloads use.
//
// Every measured run is the first run of a fresh process: a run's cost
// depends on the allocator state it starts from (the first spill drains of
// a process page-fault heavily), so the traced and untraced runs of a
// traced invocation each run in a forked child.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "digest.hpp"
#include "fleet_rig.hpp"
#include "host.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace thermbench {

namespace tc = thermctl::cluster;
using thermctl::SimTime;

namespace {

// fleet_100k's p99 needs >= 1000 steps (ten samples beyond it); at ~20 ms
// per 100k-node step that is the whole run. fleet_16k_dc is sized to the
// measurement budget on a 4-thread host.
constexpr long kMinSteps = 1000;
constexpr double kDcStepsPerSecond = 200.0;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

FleetSpec make_spec(const Options& options, bool datacenter) {
  FleetSpec spec;
  spec.datacenter = datacenter;
  spec.seed = options.seed;
  spec.workers = options.workers > 0 ? options.workers : (datacenter ? 4 : 1);
  if (options.smoke) {
    spec.nodes = datacenter ? 512 : 2048;
    spec.steps = datacenter ? 200 : 60;
    return spec;
  }
  spec.nodes = datacenter ? 16384 : 100000;
  spec.steps = datacenter
                   ? std::max(kMinSteps, std::lround(kDcStepsPerSecond * options.seconds))
                   : kMinSteps;
  return spec;
}

double node_steps(const FleetSpec& spec) {
  return static_cast<double>(spec.nodes) * static_cast<double>(spec.steps);
}
/// Per-node series sanity: one row per record instant, finite plausible
/// temperatures, a positive energy integral. Returns the failing node count.
std::uint64_t check_series(const tc::RunResult& run, const FleetRig& rig) {
  const tc::EngineConfig cfg = rig.engine_config();
  const double sim_s = static_cast<double>(rig.spec.steps) * cfg.physics_dt.value();
  const auto rows =
      static_cast<std::size_t>(std::floor(sim_s / cfg.record_period.value() + 1e-9)) + 1;
  if (run.times.size() != rows || run.nodes.size() != rig.spec.nodes) {
    return rig.spec.nodes;
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < run.nodes.size(); ++i) {
    const tc::NodeSeries& s = run.nodes[i];
    bool ok = s.die_temp.size() == rows && s.sensor_temp.size() == rows &&
              s.duty.size() == rows && s.rpm.size() == rows && s.freq_ghz.size() == rows &&
              s.power_w.size() == rows && s.util.size() == rows && s.activity.size() == rows &&
              run.summaries[i].energy_j > 0.0;
    for (std::size_t k = 0; ok && k < s.die_temp.size(); ++k) {
      ok = std::isfinite(s.die_temp[k]) && s.die_temp[k] > 0.0 && s.die_temp[k] < 150.0;
    }
    failed += ok ? 0 : 1;
  }
  return failed;
}

/// Checks that the datacenter workload exercised what it is there for: the
/// plane actuated caps, the spiller lost no trace event, expositions were
/// rendered.
bool check_datacenter(const FleetRig& rig) {
  if (!rig.spec.datacenter) {
    return true;
  }
  const thermctl::obs::SpillStats& spill = rig.spiller->stats();
  bool ok = true;
  if (rig.plane->stats().caps_lowered == 0) {
    std::fprintf(stderr, "thermbench: the control plane never lowered a cap\n");
    ok = false;
  }
  if (spill.events_lost != 0 || spill.events_spilled != rig.trace->total_emitted() ||
      !rig.spill_sink.finalized()) {
    std::fprintf(stderr, "thermbench: the spiller lost trace events\n");
    ok = false;
  }
  if (rig.renders == 0) {
    std::fprintf(stderr, "thermbench: no OpenMetrics exposition was rendered\n");
    ok = false;
  }
  return ok;
}

/// Engine::finalize's per-node summaries, from the same public state.
void finalize_summaries(tc::Cluster& cluster, tc::RunResult& result) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const tc::Node& n = cluster.node(i);
    tc::NodeSummary& s = result.summaries[i];
    const tc::NodeSeries& series = result.nodes[i];
    double sum_die = 0.0;
    double max_die = 0.0;
    double sum_duty = 0.0;
    for (std::size_t k = 0; k < series.die_temp.size(); ++k) {
      sum_die += series.die_temp[k];
      max_die = std::max(max_die, series.die_temp[k]);
      sum_duty += series.duty[k];
    }
    const double count = static_cast<double>(std::max<std::size_t>(1, series.die_temp.size()));
    s.avg_die_temp = sum_die / count;
    s.max_die_temp = max_die;
    s.avg_duty = sum_duty / count;
    s.avg_power_w = n.meter().average_power().value();
    s.energy_j = n.meter().energy().value();
    s.freq_transitions = n.cpu().transition_count();
    s.prochot_events = n.prochot_events();
    s.prochot_seconds = n.prochot_time().value();
    const thermctl::hw::I2cErrorStats& io = n.fan_driver().io_stats();
    s.i2c_retries = io.retries;
    s.i2c_naks = io.naks;
    s.i2c_bus_faults = io.bus_faults;
    s.i2c_exhausted = io.exhausted;
  }
}

/// What the parent needs from an untraced run (trivially copyable: it
/// crosses a pipe from a child in traced mode).
struct UntracedSummary {
  std::uint64_t digest = 0;
  std::uint64_t failed_nodes = 0;
  bool checks_ok = false;
  double build_s = 0.0;  // rig + engine construction
  double loop_s = 0.0;   // first to last observer reading
  double run_s = 0.0;    // the whole Engine::run call, result finalization included
  double step_p50_us = 0.0;
  Tail step_tail{};  // us
  RigSetup setup{};
  double rss_bytes_per_node = 0.0;
  double fleet_bytes_per_node = 0.0;
};

/// Builds a rig and runs it through Engine::run.
UntracedSummary run_untraced(const FleetSpec& spec) {
  UntracedSummary out;
  trim_heap();
  const std::size_t rss_before = current_rss_bytes();
  const auto build_start = Clock::now();
  FleetRig rig{spec};
  const std::unique_ptr<tc::Engine> engine = rig.make_engine();
  out.build_s = seconds_since(build_start);
  const std::size_t rss_after = current_rss_bytes();
  out.rss_bytes_per_node = rss_after > rss_before ? static_cast<double>(rss_after - rss_before) /
                                                        static_cast<double>(spec.nodes)
                                                  : 0.0;
  out.fleet_bytes_per_node = static_cast<double>(rig.cluster->fleet()->memory_bytes()) /
                             static_cast<double>(spec.nodes);
  out.setup = rig.setup;

  std::vector<Clock::time_point> stamps;
  stamps.reserve(static_cast<std::size_t>(spec.steps) + 1);
  engine->add_periodic(rig.engine_config().physics_dt,
                       [&stamps](SimTime) { stamps.push_back(Clock::now()); });
  stamps.push_back(Clock::now());
  const tc::RunResult result = engine->run();
  out.run_s = seconds_since(stamps.front());
  out.loop_s = seconds_between(stamps.front(), stamps.back());
  std::vector<double> step_us;
  for (std::size_t k = 1; k < stamps.size(); ++k) {
    step_us.push_back(seconds_between(stamps[k - 1], stamps[k]) * 1e6);
  }
  out.step_p50_us = median(step_us);
  out.step_tail = tail(step_us);
  if (rig.spiller != nullptr) {
    rig.spiller->finish();
  }
  out.digest = sim_digest(result, rig.controller_events());
  out.failed_nodes = stamps.size() == static_cast<std::size_t>(spec.steps) + 1
                         ? check_series(result, rig)
                         : spec.nodes;
  out.checks_ok = check_datacenter(rig);
  return out;
}

/// Host time per layer summed over the traced run (ns), plus the counts
/// the per-layer report needs (trivially copyable, like UntracedSummary).
struct TracedSummary {
  std::uint64_t digest = 0;
  bool checks_ok = false;
  double load = 0, pre = 0, solve = 0, post = 0, sample = 0;
  double shard_wall = 0, shard_busy_max = 0, shard_busy_mean = 0, shard_busy_total = 0;
  double room = 0, plane = 0, control = 0, spill = 0, rollup = 0, alerts = 0, render = 0;
  double record = 0;
  double loop = 0;
  double finalize = 0;  // MetricsRecorder::result()
  Tail control_tick{};  // per family tick, us
  double render_us_p50 = 0;
  double render_bytes = 0;  // mean exposition size
  std::uint64_t sensor_samples = 0;
  std::uint64_t controller_events = 0;
  std::uint64_t plane_budgets = 0;
  std::uint64_t plane_cap_moves = 0;
  std::uint64_t spill_events = 0;
  std::uint64_t spill_lost = 0;
  std::uint64_t alerts_fired = 0;
};

struct alignas(64) ShardSlot {
  double pre = 0, solve = 0, post = 0, sample = 0;
  std::uint64_t samples = 0;
};

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

TracedSummary run_traced(const FleetSpec& spec) {
  trim_heap();
  FleetRig rig{spec};
  const tc::EngineConfig cfg = rig.engine_config();
  tc::Cluster& cl = *rig.cluster;
  tc::FleetState* fleet = cl.fleet();
  tc::FleetSweep* sweep = cl.sweep();
  const std::size_t n = cl.size();
  const thermctl::Seconds dt = cfg.physics_dt;
  const auto dt_us = static_cast<std::int64_t>(dt.value() * 1e6);
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(static_cast<std::size_t>(cfg.workers), n));
  std::unique_ptr<thermctl::runtime::ThreadPool> pool;
  if (shards > 1) {
    pool = std::make_unique<thermctl::runtime::ThreadPool>(shards - 1);
  }
  std::vector<ShardSlot> slots(shards);
  tc::Node* const* nodes = cl.raw_nodes().data();

  tc::MetricsRecorder recorder(n);
  thermctl::PeriodicSchedule record_schedule{
      static_cast<std::int64_t>(cfg.record_period.value() * 1e6)};
  std::vector<thermctl::PeriodicSchedule> schedules;
  for (const RigTask& task : rig.tasks) {
    const auto p = static_cast<std::int64_t>(task.period.value() * 1e6);
    schedules.emplace_back(p, p);  // Engine::add_periodic's phasing
  }
  // The engine's metric handles, kept identical so the exposition is too.
  thermctl::obs::Counter* m_steps = nullptr;
  thermctl::obs::Counter* m_samples = nullptr;
  thermctl::obs::Counter* m_ticks = nullptr;
  thermctl::obs::Counter* m_records = nullptr;
  thermctl::obs::Gauge* m_sim_time = nullptr;
  if (rig.registry != nullptr) {
    thermctl::obs::MetricsShard& shard = rig.registry->shard(0);
    m_steps = &shard.counter("engine.steps");
    m_samples = &shard.counter("engine.sensor_samples");
    m_ticks = &shard.counter("engine.task_ticks");
    m_records = &shard.counter("engine.record_samples");
    m_sim_time = &shard.gauge("engine.sim_time_s");
  }

  SimTime now;
  auto record = [&] {
    recorder.stamp(now.seconds());
    const double* die = sweep->die_temp_row();
    const double* sensor = fleet->sensor_last_data();
    const double* duty = fleet->fan_duty_data();
    const double* rpm = fleet->fan_rpm_data();
    const double* util = fleet->util_data();
    for (std::size_t i = 0; i < n; ++i) {
      recorder.sample(now.seconds(), i, die[i], sensor[i], duty[i], rpm[i],
                      sweep->nominal_freq_ghz(i), sweep->wall_power_w(i), util[i],
                      tc::ActivityCode::kNone);
    }
  };
  auto run_shard = [&](std::size_t s, std::size_t begin, std::size_t end, SimTime after) {
    ShardSlot& slot = slots[s];
    const auto a = Clock::now();
    sweep->pre_range(begin, end, dt);
    const auto b = Clock::now();
    fleet->batch().step_range(dt, begin, end);
    const auto c = Clock::now();
    sweep->post_range(begin, end, dt);
    const auto d = Clock::now();
    slot.samples = sweep->sample_range(begin, end, after);
    const auto e = Clock::now();
    slot.pre = ns_between(a, b);
    slot.solve = ns_between(b, c);
    slot.post = ns_between(c, d);
    slot.sample = ns_between(d, e);
  };

  TracedSummary t;
  std::vector<double> control_tick_us;
  std::vector<double> render_us;
  const auto loop_start = Clock::now();
  if (rig.room != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i]->package().set_ambient(rig.room->inlet(i));
    }
  }
  auto c0 = Clock::now();
  record_schedule.due(now);
  recorder.reserve(std::min<std::size_t>(
      static_cast<std::size_t>(cfg.horizon.value() / cfg.record_period.value()) + 2, 1u << 20));
  record();
  t.record += ns_between(c0, Clock::now());

  while (true) {
    c0 = Clock::now();
    rig.load(now, fleet->util_data(), fleet->halted_data(), n);
    auto c1 = Clock::now();
    t.load += ns_between(c0, c1);

    SimTime after = now;
    after.advance_us(dt_us);
    const std::size_t base = n / shards;
    const std::size_t rem = n % shards;
    std::size_t begin = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t end = begin + base + (s < rem ? 1 : 0);
      if (s + 1 == shards) {
        run_shard(s, begin, end, after);  // the engine runs its last shard inline
      } else {
        pool->submit([&run_shard, s, begin, end, after] { run_shard(s, begin, end, after); });
      }
      begin = end;
    }
    if (pool != nullptr) {
      pool->wait_idle();
    }
    c0 = Clock::now();
    t.shard_wall += ns_between(c1, c0);
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (const ShardSlot& slot : slots) {
      t.pre += slot.pre;
      t.solve += slot.solve;
      t.post += slot.post;
      t.sample += slot.sample;
      t.sensor_samples += slot.samples;
      const double busy = slot.pre + slot.solve + slot.post + slot.sample;
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
    }
    t.shard_busy_max += busy_max;
    t.shard_busy_mean += busy_sum / static_cast<double>(shards);
    t.shard_busy_total += busy_sum;
    now = after;

    if (rig.room != nullptr) {
      double rack_watts = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        rack_watts += sweep->wall_power_w(i);
      }
      rig.room->step(dt, thermctl::Watts{rack_watts});
      for (std::size_t i = 0; i < n; ++i) {
        nodes[i]->package().set_ambient(rig.room->inlet(i));
      }
    }
    c1 = Clock::now();
    t.room += ns_between(c0, c1);
    if (m_steps != nullptr) {
      m_steps->inc();
      for (const ShardSlot& slot : slots) {
        m_samples->add(slot.samples);
      }
    }

    c0 = Clock::now();
    if (rig.plane != nullptr) {
      rig.plane->on_round(now);
    }
    c1 = Clock::now();
    t.plane += ns_between(c0, c1);

    for (std::size_t k = 0; k < rig.tasks.size(); ++k) {
      while (schedules[k].due(now)) {
        c0 = Clock::now();
        rig.tasks[k].fn(now);
        c1 = Clock::now();
        const double ns = ns_between(c0, c1);
        switch (rig.tasks[k].layer) {
          case TaskLayer::kControl:
            t.control += ns;
            control_tick_us.push_back(ns / 1e3);
            break;
          case TaskLayer::kSpill:
            t.spill += ns;
            break;
          case TaskLayer::kRollup:
            t.rollup += ns;
            break;
          case TaskLayer::kAlerts:
            t.alerts += ns;
            break;
          case TaskLayer::kRender:
            t.render += ns;
            render_us.push_back(ns / 1e3);
            break;
        }
        if (m_ticks != nullptr) {
          m_ticks->inc();
        }
      }
    }

    while (record_schedule.due(now)) {
      c0 = Clock::now();
      record();
      t.record += ns_between(c0, Clock::now());
      if (m_records != nullptr) {
        m_records->inc();
      }
    }
    if (now.seconds() >= cfg.horizon.value()) {
      break;
    }
  }
  t.loop = ns_between(loop_start, Clock::now());
  if (m_sim_time != nullptr) {
    m_sim_time->set(now.seconds());
  }

  c0 = Clock::now();
  tc::RunResult result = recorder.result();
  t.finalize = ns_between(c0, Clock::now());
  result.app_completed = false;
  result.exec_time_s = now.seconds();
  finalize_summaries(cl, result);
  if (rig.spiller != nullptr) {
    rig.spiller->finish();
  }
  const std::vector<std::uint64_t> events = rig.controller_events();
  t.digest = sim_digest(result, events);
  t.checks_ok = check_datacenter(rig);
  for (std::uint64_t e : events) {
    t.controller_events += e;
  }
  if (!control_tick_us.empty()) {
    t.control_tick = tail(control_tick_us);
  }
  if (!render_us.empty()) {
    t.render_us_p50 = median(render_us);
    t.render_bytes = static_cast<double>(rig.render_bytes) / static_cast<double>(rig.renders);
  }
  if (rig.plane != nullptr) {
    const tc::ctrl::PlaneStats& ps = rig.plane->stats();
    t.plane_budgets = ps.budgets_received;
    t.plane_cap_moves = ps.caps_lowered + ps.caps_raised + ps.caps_released;
  }
  if (rig.spiller != nullptr) {
    t.spill_events = rig.spiller->stats().events_spilled;
    t.spill_lost = rig.spiller->stats().events_lost;
    t.alerts_fired = rig.watchdog->events().size();
  }
  return t;
}

/// The untraced run's host-time figures (a fleet serves no client, so it has
/// no request metrics).
void report_untraced(const UntracedSummary& run, const FleetSpec& spec, Report& report) {
  report.set("node_steps_per_s", node_steps(spec) / run.loop_s, "1/s");
  report.set("step_p50_us", run.step_p50_us, "us");
  report.set("step_p99_us", run.step_tail.value, "us");
  report.annotate("step_p99_us", tail_note(run.step_tail, "untraced steps"));
  report.set("sweep_wall_ms", run.run_s * 1e3, "ms");
  report.annotate("sweep_wall_ms", "one Engine::run, result finalization included");
}

void report_traced(const TracedSummary& t, const UntracedSummary& untraced,
                   const FleetSpec& spec, Report& report) {
  report_untraced(untraced, spec, report);
  const double base = node_steps(spec);
  auto per_node_step = [&](const char* name, double ns) { report.set(name, ns / base, "ns"); };
  per_node_step("workload.load_fill_ns", t.load);
  per_node_step("cluster.sweep_pre_ns", t.pre);
  per_node_step("thermal.rc_solve_ns", t.solve);
  per_node_step("cluster.sweep_post_ns", t.post);
  per_node_step("cluster.sample_ns", t.sample);
  per_node_step("cluster.room_ns", t.room);
  per_node_step("cluster.plane_round_ns", t.plane);
  per_node_step("core.control_tick_ns", t.control);
  per_node_step("cluster.record_ns", t.record);
  per_node_step("obs.rollup_ns", t.rollup);
  per_node_step("obs.alerts_ns", t.alerts);
  per_node_step("obs.spill_drain_ns", t.spill);
  per_node_step("runtime.shard_phase_ns", t.shard_wall);
  report.set("trace.node_steps", base, "count");
  report.set("cluster.record_finalize_ms", t.finalize / 1e6, "ms");
  if (t.control_tick.samples > 0) {
    report.set("core.control_tick_p99_us", t.control_tick.value, "us");
    report.annotate("core.control_tick_p99_us", tail_note(t.control_tick, "family ticks"));
  }
  report.set("obs.openmetrics_render_us", t.render_us_p50, "us");
  report.set("obs.openmetrics_bytes", t.render_bytes, "bytes");

  report.set("runtime.shard_imbalance", t.shard_busy_max / t.shard_busy_mean, "ratio");
  report.annotate("runtime.shard_imbalance", "slowest shard busy time / mean, summed over steps");
  const double serial = t.loop - t.shard_wall;
  const double serial_frac = serial / (serial + t.shard_busy_total);
  report.set("runtime.serial_frac", serial_frac, "ratio");
  report.annotate("runtime.serial_frac", "serial phases / (serial + summed shard busy time)");
  // At the benchmark's thread limit, whatever this run's worker count, so a
  // 1-worker run predicts what sharding could gain.
  constexpr double kAmdahlWorkers = 4.0;
  report.set("runtime.amdahl_bound", 1.0 / (serial_frac + (1.0 - serial_frac) / kAmdahlWorkers),
             "ratio");
  report.annotate("runtime.amdahl_bound", "speedup bound over 1 worker at 4 workers");

  const double phase_sum = t.load + t.shard_wall + t.room + t.plane + t.control + t.spill +
                           t.rollup + t.alerts + t.render + t.record;
  report.set("trace.phase_sum_frac", phase_sum / t.loop, "ratio");
  const double untraced_ns = untraced.loop_s * 1e9;
  report.set("trace.overhead_frac", (t.loop - untraced_ns) / untraced_ns, "ratio");
  report.annotate("trace.overhead_frac", "traced / untraced step loop - 1");
  report.set("trace.digest_match", t.digest == untraced.digest ? 1.0 : 0.0, "count");

  report.set("setup.cluster_s", untraced.setup.cluster_s, "s");
  report.set("setup.controllers_s", untraced.setup.controllers_s, "s");
  report.set("setup.plane_s", untraced.setup.plane_s, "s");
  report.set("setup.telemetry_s", untraced.setup.telemetry_s, "s");
  report.set("cluster.fleet_bytes_per_node", untraced.fleet_bytes_per_node, "bytes");
  report.set("rss_bytes_per_node", untraced.rss_bytes_per_node, "bytes");

  report.set("cluster.sensor_samples", static_cast<double>(t.sensor_samples), "count");
  report.set("core.controller_events", static_cast<double>(t.controller_events), "count");
  report.set("cluster.plane_budgets", static_cast<double>(t.plane_budgets), "count");
  report.set("cluster.plane_cap_change_ratio",
             t.plane_budgets == 0 ? 0.0
                                  : static_cast<double>(t.plane_cap_moves) /
                                        static_cast<double>(t.plane_budgets),
             "ratio");
  report.annotate("cluster.plane_cap_change_ratio", "cap moves per budget received");
  report.set("obs.spill_events", static_cast<double>(t.spill_events), "count");
  const auto seen = static_cast<double>(t.spill_events + t.spill_lost);
  report.set("obs.spill_lost_ratio", seen == 0.0 ? 0.0 : static_cast<double>(t.spill_lost) / seen,
             "ratio");
  report.set("obs.alerts_fired", static_cast<double>(t.alerts_fired), "count");
}

}  // namespace

Outcome run_fleet(const Options& options, bool datacenter, Report& report) {
  const FleetSpec spec = make_spec(options, datacenter);
  std::printf("fleet: %zu nodes, %ld steps, %d worker(s)%s\n", spec.nodes, spec.steps,
              spec.workers, datacenter ? ", plane + room + live telemetry" : "");
  Outcome outcome;
  outcome.attempted = spec.nodes;

  if (!options.trace) {
    const UntracedSummary run = run_untraced(spec);
    // The remaining set-ups come after the run, which stays the first of
    // the process.
    std::vector<double> setups{run.build_s};
    while (setups.size() < static_cast<std::size_t>(kSetups)) {
      trim_heap();
      const auto start = Clock::now();
      auto rig = std::make_unique<FleetRig>(spec);
      auto engine = rig->make_engine();
      setups.push_back(seconds_since(start));
    }
    std::printf("sim_digest=%s\n", hex(run.digest).c_str());
    report_untraced(run, spec, report);
    report.set("setup_s", median(setups), "s");
    report.annotate("setup_s", "median of " + std::to_string(kSetups) + " rig builds");
    report.set("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
    outcome.failed = run.failed_nodes;
    outcome.correct = run.failed_nodes == 0 && run.checks_ok;
    return outcome;
  }

  UntracedSummary untraced;
  TracedSummary traced;
  const bool untraced_ok = run_in_child<UntracedSummary>(
      untraced, [&spec] { return run_untraced(spec); });
  const bool traced_ok =
      run_in_child<TracedSummary>(traced, [&spec] { return run_traced(spec); });
  if (!untraced_ok || !traced_ok) {
    std::fprintf(stderr, "thermbench: a fleet run failed in its child process\n");
    outcome.correct = false;
    outcome.failed = spec.nodes;
    return outcome;
  }
  std::printf("sim_digest=%s traced=%s\n", hex(untraced.digest).c_str(),
              hex(traced.digest).c_str());
  if (traced.digest != untraced.digest) {
    std::fprintf(stderr,
                 "thermbench: the traced run's digest differs from the untraced run's; its "
                 "per-layer numbers are invalid\n");
  }
  report_traced(traced, untraced, spec, report);
  outcome.failed = untraced.failed_nodes;
  outcome.correct = untraced.failed_nodes == 0 && untraced.checks_ok && traced.checks_ok;
  return outcome;
}

}  // namespace thermbench
