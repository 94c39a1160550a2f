#include "verify/differential.hpp"

#include <bit>
#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "obs/openmetrics.hpp"
#include "obs/spill.hpp"
#include "runtime/sweep.hpp"

namespace thermctl::verify {

const char* to_string(OraclePairKind kind) {
  switch (kind) {
    case OraclePairKind::kSerialVsParallel:
      return "serial-vs-parallel";
    case OraclePairKind::kTelemetryOnVsOff:
      return "telemetry-on-vs-off";
    case OraclePairKind::kFaultAwareZeroFault:
      return "fault-aware-zero-fault";
    case OraclePairKind::kShardedVsSerial:
      return "sharded-vs-serial";
    case OraclePairKind::kPlanePassiveVsDetached:
      return "plane-passive-vs-detached";
    case OraclePairKind::kLiveTelemetryOnVsOff:
      return "live-telemetry-on-vs-off";
    case OraclePairKind::kDaemonPassiveVsEngine:
      return "daemon-passive-vs-engine";
  }
  return "unknown";
}

namespace {

/// Accumulates bit-exact field comparisons into a ResultDiff.
struct Differ {
  ResultDiff diff;
  std::size_t cap;

  explicit Differ(std::size_t max_differences) : cap(max_differences) {}

  void mismatch(const std::string& what) {
    ++diff.difference_count;
    if (diff.differences.size() < cap) {
      diff.differences.push_back(what);
    }
  }

  void f64(const std::string& name, double a, double b) {
    ++diff.fields_compared;
    // Bit-pattern equality: NaN == NaN, but -0.0 != +0.0 and any ULP drift
    // counts. Determinism means *identical*, not "close".
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      std::ostringstream msg;
      msg << name << ": " << a << " != " << b;
      mismatch(msg.str());
    }
  }

  void u64(const std::string& name, std::uint64_t a, std::uint64_t b) {
    ++diff.fields_compared;
    if (a != b) {
      std::ostringstream msg;
      msg << name << ": " << a << " != " << b;
      mismatch(msg.str());
    }
  }

  void boolean(const std::string& name, bool a, bool b) {
    u64(name, a ? 1 : 0, b ? 1 : 0);
  }

  void f64_vec(const std::string& name, const std::vector<double>& a,
               const std::vector<double>& b) {
    ++diff.fields_compared;
    if (a.size() != b.size()) {
      std::ostringstream msg;
      msg << name << ".size: " << a.size() << " != " << b.size();
      mismatch(msg.str());
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      f64(name + "[" + std::to_string(i) + "]", a[i], b[i]);
    }
  }
};

/// FNV-1a over the 64-bit words of the visited fields, in walk order. It
/// implements the Differ interface so digest_result can reuse walk_fields
/// with the result paired against itself: only `a` is read.
struct Digester {
  std::uint64_t hash = 14695981039346656037ULL;

  void word(std::uint64_t w) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (w >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  void f64(const std::string&, double a, double) { word(std::bit_cast<std::uint64_t>(a)); }
  void u64(const std::string&, std::uint64_t a, std::uint64_t) { word(a); }
  void boolean(const std::string&, bool a, bool) { word(a ? 1 : 0); }
  void f64_vec(const std::string&, const std::vector<double>& a, const std::vector<double>&) {
    word(a.size());
    for (double v : a) {
      word(std::bit_cast<std::uint64_t>(v));
    }
  }
};

void walk_run(auto& d, const cluster::RunResult& a, const cluster::RunResult& b) {
  d.f64_vec("times", a.times, b.times);
  d.boolean("app_completed", a.app_completed, b.app_completed);
  d.f64("exec_time_s", a.exec_time_s, b.exec_time_s);

  d.u64("nodes.size", a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < std::min(a.nodes.size(), b.nodes.size()); ++i) {
    const std::string p = "node" + std::to_string(i) + ".";
    const cluster::NodeSeries& sa = a.nodes[i];
    const cluster::NodeSeries& sb = b.nodes[i];
    d.f64_vec(p + "die_temp", sa.die_temp, sb.die_temp);
    d.f64_vec(p + "sensor_temp", sa.sensor_temp, sb.sensor_temp);
    d.f64_vec(p + "duty", sa.duty, sb.duty);
    d.f64_vec(p + "rpm", sa.rpm, sb.rpm);
    d.f64_vec(p + "freq_ghz", sa.freq_ghz, sb.freq_ghz);
    d.f64_vec(p + "power_w", sa.power_w, sb.power_w);
    d.f64_vec(p + "util", sa.util, sb.util);
    d.f64_vec(p + "activity", sa.activity, sb.activity);
  }

  d.u64("summaries.size", a.summaries.size(), b.summaries.size());
  for (std::size_t i = 0; i < std::min(a.summaries.size(), b.summaries.size()); ++i) {
    const std::string p = "summary" + std::to_string(i) + ".";
    const cluster::NodeSummary& sa = a.summaries[i];
    const cluster::NodeSummary& sb = b.summaries[i];
    d.f64(p + "avg_die_temp", sa.avg_die_temp, sb.avg_die_temp);
    d.f64(p + "max_die_temp", sa.max_die_temp, sb.max_die_temp);
    d.f64(p + "avg_duty", sa.avg_duty, sb.avg_duty);
    d.f64(p + "avg_power_w", sa.avg_power_w, sb.avg_power_w);
    d.f64(p + "energy_j", sa.energy_j, sb.energy_j);
    d.u64(p + "freq_transitions", sa.freq_transitions, sb.freq_transitions);
    d.u64(p + "prochot_events", static_cast<std::uint64_t>(sa.prochot_events),
          static_cast<std::uint64_t>(sb.prochot_events));
    d.f64(p + "prochot_seconds", sa.prochot_seconds, sb.prochot_seconds);
    d.f64(p + "seconds_above_threshold", sa.seconds_above_threshold,
          sb.seconds_above_threshold);
    d.u64(p + "i2c_retries", sa.i2c_retries, sb.i2c_retries);
    d.u64(p + "i2c_naks", sa.i2c_naks, sb.i2c_naks);
    d.u64(p + "i2c_bus_faults", sa.i2c_bus_faults, sb.i2c_bus_faults);
    d.u64(p + "i2c_exhausted", sa.i2c_exhausted, sb.i2c_exhausted);
  }
}

/// The one list of behavioural fields, visited pairwise over (a, b). Both
/// diff_results and digest_result walk it, so the digest covers exactly the
/// fields the oracle diffs.
void walk_fields(auto& d, const core::ExperimentResult& a, const core::ExperimentResult& b) {
  walk_run(d, a.run, b.run);

  d.f64("first_dvfs_trigger_s", a.first_dvfs_trigger_s, b.first_dvfs_trigger_s);

  d.u64("tdvfs_events.size", a.tdvfs_events.size(), b.tdvfs_events.size());
  for (std::size_t i = 0; i < std::min(a.tdvfs_events.size(), b.tdvfs_events.size()); ++i) {
    const std::string p = "tdvfs" + std::to_string(i);
    d.u64(p + ".size", a.tdvfs_events[i].size(), b.tdvfs_events[i].size());
    for (std::size_t k = 0;
         k < std::min(a.tdvfs_events[i].size(), b.tdvfs_events[i].size()); ++k) {
      const std::string q = p + "[" + std::to_string(k) + "].";
      d.f64(q + "time_s", a.tdvfs_events[i][k].time_s, b.tdvfs_events[i][k].time_s);
      d.f64(q + "from_ghz", a.tdvfs_events[i][k].from_ghz, b.tdvfs_events[i][k].from_ghz);
      d.f64(q + "to_ghz", a.tdvfs_events[i][k].to_ghz, b.tdvfs_events[i][k].to_ghz);
    }
  }

  d.u64("fan_events.size", a.fan_events.size(), b.fan_events.size());
  for (std::size_t i = 0; i < std::min(a.fan_events.size(), b.fan_events.size()); ++i) {
    const std::string p = "fan" + std::to_string(i);
    d.u64(p + ".size", a.fan_events[i].size(), b.fan_events[i].size());
    for (std::size_t k = 0; k < std::min(a.fan_events[i].size(), b.fan_events[i].size());
         ++k) {
      const std::string q = p + "[" + std::to_string(k) + "].";
      d.f64(q + "time_s", a.fan_events[i][k].time_s, b.fan_events[i][k].time_s);
      d.f64(q + "from_duty", a.fan_events[i][k].from_duty, b.fan_events[i][k].from_duty);
      d.f64(q + "to_duty", a.fan_events[i][k].to_duty, b.fan_events[i][k].to_duty);
      d.boolean(q + "used_level2", a.fan_events[i][k].used_level2,
                b.fan_events[i][k].used_level2);
    }
  }

  const core::ControllerFaultStats& fa = a.fault_stats;
  const core::ControllerFaultStats& fb = b.fault_stats;
  d.u64("fault.failsafe_entries", fa.failsafe_entries, fb.failsafe_entries);
  d.u64("fault.failsafe_exits", fa.failsafe_exits, fb.failsafe_exits);
  d.u64("fault.dvfs_hold_entries", fa.dvfs_hold_entries, fb.dvfs_hold_entries);
  d.u64("fault.dvfs_held_ticks", fa.dvfs_held_ticks, fb.dvfs_held_ticks);
  d.u64("fault.sensor_rejected", fa.sensor_rejected, fb.sensor_rejected);
  d.u64("fault.sensor_stuck_detections", fa.sensor_stuck_detections,
        fb.sensor_stuck_detections);
  d.u64("fault.sensor_failures", fa.sensor_failures, fb.sensor_failures);
  d.u64("fault.sensor_recoveries", fa.sensor_recoveries, fb.sensor_recoveries);
}

}  // namespace

ResultDiff diff_results(const core::ExperimentResult& a, const core::ExperimentResult& b,
                        std::size_t max_differences) {
  Differ d{max_differences};
  walk_fields(d, a, b);
  return d.diff;
}

std::uint64_t digest_result(const core::ExperimentResult& result) {
  Digester d;
  walk_fields(d, result, result);
  return d.hash;
}

std::vector<core::ExperimentConfig> make_oracle_corpus(std::uint64_t seed, std::size_t count) {
  std::vector<core::ExperimentConfig> corpus;
  corpus.reserve(count);
  Rng rng{seed};
  for (std::size_t i = 0; i < count; ++i) {
    core::ExperimentConfig cfg = core::paper_platform();
    cfg.name = "oracle-" + std::to_string(i);
    // Mostly small racks for speed; every fourth config is wide enough that
    // the sharded-vs-serial pair exercises multi-node shards and partitions
    // the shard count does not divide evenly.
    cfg.nodes = (i % 4 == 3) ? 4 + rng.below(5) : 1 + rng.below(3);
    cfg.seed = rng.next_u64();
    cfg.pp = core::PolicyParam{static_cast<int>(1 + rng.below(100))};
    cfg.max_duty = DutyCycle{static_cast<double>(60 + rng.below(41))};
    cfg.fan = core::FanPolicyKind::kDynamic;

    // Small, fast workloads: each point simulates 20–45 s at 1–3 nodes so a
    // >= 20-config corpus (x4 passes) stays inside a CI budget.
    switch (rng.below(3)) {
      case 0:
        cfg.workload = core::WorkloadKind::kIdle;
        cfg.engine.horizon = Seconds{rng.uniform(20.0, 35.0)};
        break;
      case 1:
        cfg.workload = core::WorkloadKind::kCpuBurn;
        cfg.cpu_burn_duration = Seconds{rng.uniform(8.0, 14.0)};
        cfg.engine.horizon = Seconds{20.0};
        break;
      default:
        cfg.workload = core::WorkloadKind::kCpuBurnCycles;
        cfg.cpu_burn_duration = Seconds{rng.uniform(40.0, 45.0)};
        break;
    }

    if (rng.uniform() < 0.5) {
      cfg.dvfs = core::DvfsPolicyKind::kTdvfs;
      // Thresholds low enough that some corpus points actually trigger.
      cfg.tdvfs.threshold = Celsius{rng.uniform(44.0, 54.0)};
    }
    corpus.push_back(std::move(cfg));
  }
  return corpus;
}

OracleReport run_oracle(const std::vector<core::ExperimentConfig>& corpus,
                        OracleOptions options) {
  OracleReport report;
  report.configs = corpus.size();

  auto record = [&](std::size_t index, OraclePairKind kind, ResultDiff diff) {
    ++report.pairs_checked;
    if (!diff.identical()) {
      report.failures.push_back(
          OracleFailure{index, corpus[index].name, kind, std::move(diff)});
    }
  };

  // Reference pass: strictly serial.
  const std::vector<core::ExperimentResult> base =
      runtime::run_sweep(corpus, runtime::SweepOptions{.threads = 1});

  // Pair 1: the same corpus across worker threads.
  {
    const std::vector<core::ExperimentResult> parallel =
        runtime::run_sweep(corpus, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kSerialVsParallel,
             diff_results(base[i], parallel[i], options.max_differences));
    }
  }

  // Pair 2: telemetry armed (trace + metrics). The payloads differ by
  // construction; everything behavioural must not.
  {
    std::vector<core::ExperimentConfig> lit = corpus;
    for (core::ExperimentConfig& cfg : lit) {
      cfg.telemetry.trace = true;
      cfg.telemetry.metrics = true;
    }
    const std::vector<core::ExperimentResult> traced =
        runtime::run_sweep(lit, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kTelemetryOnVsOff,
             diff_results(base[i], traced[i], options.max_differences));
    }
  }

  // Pair 3: fault-aware gating enabled with nothing to gate (no fault
  // campaign): the monitors watch every sample but must never intervene.
  {
    std::vector<core::ExperimentConfig> gated = corpus;
    for (core::ExperimentConfig& cfg : gated) {
      cfg.fault_aware = true;
      cfg.faults.enabled = false;
    }
    const std::vector<core::ExperimentResult> aware =
        runtime::run_sweep(gated, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kFaultAwareZeroFault,
             diff_results(base[i], aware[i], options.max_differences));
    }
  }

  // Pair 4: the sharded engine. Same configs, but the per-step physics phase
  // is split across 2–5 worker shards (varied per config so both divisible
  // and non-divisible node/shard partitions occur, and shard counts above
  // the node count get clamped). BSP with one barrier per step must be
  // bit-identical to the serial engine.
  {
    std::vector<core::ExperimentConfig> sharded = corpus;
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      sharded[i].engine.workers = static_cast<int>(2 + i % 4);
    }
    const std::vector<core::ExperimentResult> shard_res =
        runtime::run_sweep(sharded, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kShardedVsSerial,
             diff_results(base[i], shard_res[i], options.max_differences));
    }
  }

  // Pair 5: a passive hierarchical control plane attached (joins, telemetry,
  // budget heartbeats all flow every plane round — over a lossy transport,
  // even) vs no plane at all. Passive agents never touch cpufreq or the
  // policy sinks, so the node behaviour must be bit-identical; plane_stats
  // is the only thing allowed to differ and is not diffed.
  {
    std::vector<core::ExperimentConfig> planed = corpus;
    for (std::size_t i = 0; i < planed.size(); ++i) {
      core::ExperimentConfig& cfg = planed[i];
      cfg.control_plane.enabled = true;
      cfg.control_plane.plane.passive = true;
      // Exercise the budget/tightening paths too: they must compute but not
      // actuate. Vary rack width so single- and multi-rack layouts occur.
      cfg.control_plane.plane.nodes_per_rack = 1 + i % 3;
      cfg.control_plane.plane.rack_budget_w = 150.0;
      cfg.control_plane.plane.room_budget_w = 400.0;
      // Faulty transport on half the corpus: drops and reorders consume the
      // plane's own RNG, which must stay isolated from the run's streams.
      if (i % 2 == 1) {
        cfg.control_plane.plane.transport.drop_rate = 0.2;
        cfg.control_plane.plane.transport.reorder_rate = 0.2;
      }
    }
    const std::vector<core::ExperimentResult> attached =
        runtime::run_sweep(planed, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kPlanePassiveVsDetached,
             diff_results(base[i], attached[i], options.max_differences));
    }
  }

  // Pair 6: the full live telemetry pipeline armed — streaming spiller into
  // an in-memory sink, fleet rollups on a sub-second cadence, watchdog rules
  // set low enough to actually fire, and mid-run OpenMetrics expositions
  // into a capturing sink. All of it is observation on the engine thread's
  // serial phases; node behaviour must stay bit-identical to the dark run.
  {
    std::vector<core::ExperimentConfig> live = corpus;
    // Sinks are raw non-owning pointers in TelemetryConfig; keep them alive
    // across the (possibly parallel) sweep.
    std::vector<std::unique_ptr<obs::MemorySpillSink>> spill_sinks;
    std::vector<std::unique_ptr<obs::CapturingTelemetrySink>> live_sinks;
    spill_sinks.reserve(live.size());
    live_sinks.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      core::ExperimentConfig& cfg = live[i];
      cfg.telemetry.trace = true;
      cfg.telemetry.metrics = true;
      // Tiny rings + tight budgets force wraps, deferrals and spiller
      // catch-up — the paths most likely to hide a behavioural side effect.
      cfg.telemetry.trace_ring_capacity = 32;
      cfg.telemetry.spill = true;
      cfg.telemetry.spill_cfg.period_s = 0.5;
      cfg.telemetry.spill_cfg.max_events_per_drain = i % 2 == 0 ? 0 : 16;
      spill_sinks.push_back(std::make_unique<obs::MemorySpillSink>());
      cfg.telemetry.spill_sink = spill_sinks.back().get();
      cfg.telemetry.rollup.enabled = true;
      cfg.telemetry.rollup.interval_s = 0.5;
      cfg.telemetry.rollup.nodes_per_rack = 1 + i % 3;
      cfg.telemetry.rollup.violation_temp_c = 45.0;
      cfg.telemetry.alerts = {
          {"hot-rack", obs::AlertKind::kMaxTemp, 45.0, 1.0, true},
          {"fleet-power", obs::AlertKind::kPowerOverBudget, 50.0, 0.0, false},
      };
      live_sinks.push_back(std::make_unique<obs::CapturingTelemetrySink>());
      cfg.telemetry.live_sink = live_sinks.back().get();
      cfg.telemetry.live_every = 2;
    }
    const std::vector<core::ExperimentResult> lit =
        runtime::run_sweep(live, runtime::SweepOptions{.threads = options.threads});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      record(i, OraclePairKind::kLiveTelemetryOnVsOff,
             diff_results(base[i], lit[i], options.max_differences));
    }
  }

  // Pair 7: the same config hosted inside thermctld with no socket and no
  // commands. The daemon's control round rides the engine as one more
  // periodic observer (pet the deadman, drain an empty queue, refresh a
  // status snapshot), so a command-free daemon run must be bit-identical to
  // the plain engine run. Serial by necessity: Daemon::run() wraps
  // run_experiment itself, so it cannot go through run_sweep.
  {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      daemon::DaemonConfig dc;
      dc.experiment = corpus[i];
      // Armed but effectively un-fireable: a spurious failsafe would actuate.
      dc.watchdog_timeout_s = 3600.0;
      daemon::Daemon d{dc};
      const core::ExperimentResult hosted = d.run();
      record(i, OraclePairKind::kDaemonPassiveVsEngine,
             diff_results(base[i], hosted, options.max_differences));
    }
  }

  return report;
}

std::string OracleReport::to_string() const {
  std::ostringstream out;
  out << configs << " configs, " << pairs_checked << " pairs checked, " << failures.size()
      << " failing";
  for (const OracleFailure& f : failures) {
    out << "\n  config " << f.config_index << " (" << f.config_name << ") "
        << verify::to_string(f.kind) << ": " << f.diff.difference_count << " diffs";
    for (const std::string& line : f.diff.differences) {
      out << "\n    " << line;
    }
  }
  return out.str();
}

}  // namespace thermctl::verify
