// Engine throughput micro-bench: steps/sec as a first-class metric.
//
// Three measurements, all written to a machine-readable JSON file so the
// performance trajectory is tracked PR-over-PR:
//
//   1. single-thread hot path: one 16-node cluster with banked unified
//      controllers and a barrier-coupled BT workload, run for a fixed
//      simulated horizon; reports engine physics steps per wall second
//      (and node-steps/sec, since per-node cost is what scales).
//   2. fleet scaling ladder: the same rig construction (fleet-backed SoA
//      cluster, per-node unified controllers, synthetic loads) at 16 to
//      100k nodes under a fixed node-step budget; reports steps/sec,
//      node-steps/sec and bytes/node (exact SoA footprint from FleetState,
//      the process-RSS delta across rig construction, and the heap in use
//      the rig build adds, which unlike RSS is not page-granular) per
//      point, the heap the run's record keeps per node and recorded row,
//      and the
//      bytes the bank's decision logs hold per decision and per node
//      (DecisionLog::memory_bytes).
//   3. parallel sweep runtime: an 8-point Pp sweep, repeated until the
//      serial run takes >= 0.5 s, executed serially
//      (1 worker) and in parallel (hardware workers) through
//      runtime::run_sweep, best of 9 alternating timed runs each; reports
//      the wall-clock speedup of the two best runs and verifies every parallel
//      result set is bit-identical to the serial one (the runtime's
//      determinism contract). On a single-hardware-thread machine the
//      speedup is reported as not meaningful rather than pretending 1.0x
//      is a result.
//
// Usage: micro_engine_throughput [--horizon S] [--nodes N] [--hot-reps R]
//                                [--sweep-points K]
//                                [--threads T] [--workers W] [--max-scale M]
//                                [--out PATH]
// Defaults: 120 s horizon, 16 nodes, 8 sweep points, hardware threads,
// engine workers auto (0), scaling ladder up to 100000 nodes,
// BENCH_engine.json in the current directory (the ctest smoke target runs a
// short horizon and a capped ladder in the build tree; the tracked repo-root
// file comes from a full run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/experiment.hpp"
#include "core/control_bank.hpp"
#include "core/unified_controller.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/app.hpp"
#include "workload/npb.hpp"

namespace {

using namespace thermctl;
using namespace thermctl::core;

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Returns freed heap pages to the OS so the next RSS delta reflects this
/// ladder point's allocations alone. Without the trim, small points reuse
/// already-resident pages freed by an earlier (larger) point's teardown and
/// report an RSS delta of zero.
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Current resident set size in bytes (Linux /proc; 0 where unavailable).
std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long total_pages = 0;
  unsigned long resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  return static_cast<std::size_t>(resident_pages) * 4096u;
#else
  return 0;
#endif
}

/// Heap bytes in use: arena chunks handed out plus mmapped blocks (0 where
/// glibc's mallinfo2 is unavailable).
std::size_t heap_in_use_bytes() {
#if defined(__GLIBC__)
#if __GLIBC_PREREQ(2, 33)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#endif
#endif
  return 0;
}

/// Peak resident set size in kilobytes over the process lifetime (0 where
/// unavailable).
std::size_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss) / 1024u;  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

struct HotPathResult {
  std::size_t nodes = 0;
  double horizon_s = 0.0;
  double physics_dt = 0.0;
  std::size_t engine_workers = 0;
  long long steps = 0;
  double wall_s = 0.0;
  double steps_per_sec = 0.0;
  double node_steps_per_sec = 0.0;
  double sim_per_wall = 0.0;
  int reps = 1;  // best-of-N repetitions (noise on a shared box is additive)
  int runs_per_rep = 1;  // identical runs summed into each repetition
};

/// Each best-of repetition sums identical runs until their timed walls reach
/// this. One run at the default horizon times only a few ms of work, which
/// read bimodally on a shared host (a cold cache or one preemption halves
/// it); a fixed minimum wall per repetition reads the steady rate.
constexpr double kMinRepWallS = 0.05;

HotPathResult measure_hot_path_once(std::size_t nodes, double horizon_s, int workers) {
  cluster::NodeParams params;
  cluster::Cluster rack{nodes, params};
  for (std::size_t i = 0; i < nodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.settle_all();

  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{horizon_s};
  engine_cfg.workers = workers;
  cluster::Engine engine{rack, engine_cfg};

  // A long BT job (never completes within the horizon) keeps the barrier
  // coupling and controller activity in the measured loop. Iterations are
  // sized to the horizon with a wide margin (one BT timestep is well over a
  // millisecond of simulated wall) — the run only ever walks a prefix of the
  // program, so the trajectory is identical to an arbitrarily longer job.
  Rng rng{nodes * 131 + 7};
  workload::NpbParams npb = workload::bt_class_b();
  npb.iterations = std::max(2000, static_cast<int>(horizon_s * 100.0));
  workload::ParallelApp app{"BT",
                            workload::make_npb_programs(npb, static_cast<int>(nodes), rng)};
  std::vector<std::size_t> mapping(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    mapping[i] = i;
  }
  engine.attach_app(app, mapping);

  ControlBank bank{nodes, rack.fleet()->sensor().last_degc.data()};
  for (std::size_t i = 0; i < nodes; ++i) {
    UnifiedConfig cfg;
    cfg.pp = PolicyParam{50};
    bank.emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
  }
  engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });

  const auto start = std::chrono::steady_clock::now();
  const cluster::RunResult run = engine.run();
  const double wall = wall_seconds_since(start);

  HotPathResult r;
  r.nodes = nodes;
  r.horizon_s = horizon_s;
  r.physics_dt = engine_cfg.physics_dt.value();
  r.engine_workers = engine.resolved_workers();
  r.steps = static_cast<long long>(run.times.back() / engine_cfg.physics_dt.value() + 0.5);
  r.wall_s = wall;
  r.steps_per_sec = static_cast<double>(r.steps) / wall;
  r.node_steps_per_sec = r.steps_per_sec * static_cast<double>(nodes);
  r.sim_per_wall = run.times.back() / wall;
  return r;
}

/// One repetition: identical hot-path runs, each on a fresh rig, until
/// their timed walls add up to kMinRepWallS; the rates are over the sum.
HotPathResult measure_hot_path_rep(std::size_t nodes, double horizon_s, int workers) {
  HotPathResult total = measure_hot_path_once(nodes, horizon_s, workers);
  while (total.wall_s < kMinRepWallS) {
    const HotPathResult r = measure_hot_path_once(nodes, horizon_s, workers);
    total.steps += r.steps;
    total.wall_s += r.wall_s;
    ++total.runs_per_rep;
  }
  total.steps_per_sec = static_cast<double>(total.steps) / total.wall_s;
  total.node_steps_per_sec = total.steps_per_sec * static_cast<double>(nodes);
  total.sim_per_wall = static_cast<double>(total.steps) * total.physics_dt / total.wall_s;
  return total;
}

/// Best of `reps` hot-path repetitions. Interference only ever *slows* a
/// repetition, so the fastest one is the closest estimate of the engine's
/// actual throughput.
HotPathResult measure_hot_path(std::size_t nodes, double horizon_s, int workers, int reps) {
  HotPathResult best{};
  for (int i = 0; i < reps; ++i) {
    HotPathResult r = measure_hot_path_rep(nodes, horizon_s, workers);
    if (i == 0 || r.steps_per_sec > best.steps_per_sec) {
      best = r;
    }
  }
  best.reps = reps;
  return best;
}

struct ScalePoint {
  std::size_t nodes = 0;
  std::size_t engine_workers = 0;
  long long steps = 0;
  double build_wall_s = 0.0;
  double wall_s = 0.0;
  double steps_per_sec = 0.0;
  double node_steps_per_sec = 0.0;
  double fleet_bytes_per_node = 0.0;
  double rss_bytes_per_node = 0.0;
  double build_heap_bytes_per_node = 0.0;
  double record_heap_bytes_per_node_row = 0.0;
  std::size_t decisions = 0;
  double decision_bytes_per_decision = 0.0;
  double decision_bytes_per_node = 0.0;
};

/// One ladder point: fleet-backed cluster + per-node unified controllers +
/// out-of-phase synthetic loads, run under a fixed node-step budget so every
/// scale costs roughly the same wall time. No barrier-coupled app here — the
/// paper's scaling story is decentralized per-node control, and a 100k-rank
/// expanded NPB program would dominate memory, not the fleet under test.
ScalePoint measure_scale(std::size_t nodes, int workers) {
  constexpr double kNodeStepBudget = 4e6;
  constexpr long long kMinSteps = 40;
  constexpr long long kMaxSteps = 20000;

  trim_heap();
  const std::size_t rss_before = current_rss_bytes();
  const std::size_t build_heap_before = heap_in_use_bytes();
  const auto build_start = std::chrono::steady_clock::now();

  cluster::NodeParams params;
  cluster::Cluster rack{nodes, params};

  cluster::EngineConfig engine_cfg;
  engine_cfg.workers = workers;
  const long long steps = std::clamp(
      static_cast<long long>(kNodeStepBudget / static_cast<double>(nodes)), kMinSteps,
      kMaxSteps);
  engine_cfg.horizon = Seconds{static_cast<double>(steps) * engine_cfg.physics_dt.value()};
  cluster::Engine engine{rack, engine_cfg};

  ControlBank bank{nodes, rack.fleet()->sensor().last_degc.data()};
  for (std::size_t i = 0; i < nodes; ++i) {
    UnifiedConfig cfg;
    cfg.pp = PolicyParam{50};
    bank.emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
  }
  engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });

  // Out-of-phase sinusoidal load, util(i, t) = 0.55 + 0.35·sin(0.7t + 0.13i),
  // delivered through the batched fleet hook: one call per step fills the
  // whole utilization row. The per-node phase offsets are precomputed and the
  // angle-addition identity sin(a+b) = sin·cos + cos·sin turns the row fill
  // into a vectorizable fused-multiply sweep — at 100k nodes the per-node
  // std::function + libm-sin dispatch this replaces cost a third of the run.
  std::vector<double> phase_sin(nodes);
  std::vector<double> phase_cos(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    phase_sin[i] = std::sin(static_cast<double>(i) * 0.13);
    phase_cos[i] = std::cos(static_cast<double>(i) * 0.13);
  }
  engine.set_fleet_load_fn([ps = std::move(phase_sin), pc = std::move(phase_cos)](
                               SimTime t, double* util, const std::uint8_t* halted,
                               std::size_t count) {
    const double s = std::sin(t.seconds() * 0.7);
    const double c = std::cos(t.seconds() * 0.7);
    for (std::size_t i = 0; i < count; ++i) {
      util[i] = halted[i] != 0 ? 0.0 : 0.55 + 0.35 * (s * pc[i] + c * ps[i]);
    }
  });

  const double build_wall = wall_seconds_since(build_start);
  const std::size_t rss_after = current_rss_bytes();
  const std::size_t build_heap_after = heap_in_use_bytes();

  const std::size_t heap_before = heap_in_use_bytes();
  const auto start = std::chrono::steady_clock::now();
  const cluster::RunResult run = engine.run();
  const double wall = wall_seconds_since(start);
  // With the result alive: what the run's record costs, staging included.
  const std::size_t heap_after = heap_in_use_bytes();

  ScalePoint p;
  p.nodes = nodes;
  p.engine_workers = engine.resolved_workers();
  p.steps = static_cast<long long>(run.times.back() / engine_cfg.physics_dt.value() + 0.5);
  p.build_wall_s = build_wall;
  p.wall_s = wall;
  p.steps_per_sec = static_cast<double>(p.steps) / wall;
  p.node_steps_per_sec = p.steps_per_sec * static_cast<double>(nodes);
  p.fleet_bytes_per_node =
      static_cast<double>(rack.fleet()->memory_bytes()) / static_cast<double>(nodes);
  if (rss_after > rss_before) {
    p.rss_bytes_per_node =
        static_cast<double>(rss_after - rss_before) / static_cast<double>(nodes);
  }
  if (build_heap_after > build_heap_before) {
    p.build_heap_bytes_per_node = static_cast<double>(build_heap_after - build_heap_before) /
                                  static_cast<double>(nodes);
  }
  if (heap_after > heap_before) {
    p.record_heap_bytes_per_node_row =
        static_cast<double>(heap_after - heap_before) /
        (static_cast<double>(nodes) * static_cast<double>(run.times.size()));
  }
  const ControlBank::DecisionLogUse logs = bank.decision_logs();
  p.decisions = logs.decisions;
  if (logs.decisions > 0) {
    p.decision_bytes_per_decision =
        static_cast<double>(logs.bytes) / static_cast<double>(logs.decisions);
  }
  p.decision_bytes_per_node = static_cast<double>(logs.bytes) / static_cast<double>(nodes);
  return p;
}

std::vector<ExperimentConfig> build_sweep(std::size_t points) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(points);
  for (std::size_t k = 0; k < points; ++k) {
    ExperimentConfig cfg = paper_platform();
    // Pp spread over [20, 90]: an aggressive-to-weak policy sweep like the
    // paper's Figs. 5/10, sized to finish quickly per point.
    const int pp = 20 + static_cast<int>(k * 70 / (points > 1 ? points - 1 : 1));
    cfg.name = "sweep_pp" + std::to_string(pp);
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.npb_iterations_override = 30;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.dvfs = DvfsPolicyKind::kTdvfs;
    cfg.pp = PolicyParam{pp};
    cfg.max_duty = DutyCycle{50.0};
    configs.push_back(cfg);
  }
  return configs;
}

bool runs_identical(const cluster::RunResult& a, const cluster::RunResult& b) {
  if (a.times != b.times || a.nodes.size() != b.nodes.size() ||
      a.app_completed != b.app_completed || a.exec_time_s != b.exec_time_s) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const cluster::NodeSeries& x = a.nodes[i];
    const cluster::NodeSeries& y = b.nodes[i];
    if (x.die_temp != y.die_temp || x.sensor_temp != y.sensor_temp || x.duty != y.duty ||
        x.rpm != y.rpm || x.freq_ghz != y.freq_ghz || x.power_w != y.power_w ||
        x.util != y.util || x.activity != y.activity) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    if (a.summaries[i].avg_die_temp != b.summaries[i].avg_die_temp ||
        a.summaries[i].energy_j != b.summaries[i].energy_j ||
        a.summaries[i].freq_transitions != b.summaries[i].freq_transitions) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace tb = thermctl::bench;

  double horizon_s = 120.0;
  std::size_t nodes = 16;
  std::size_t sweep_points = 8;
  std::size_t threads = 0;    // 0 = hardware
  int engine_workers = 0;     // 0 = auto (Engine::resolved_workers)
  std::size_t max_scale = 100000;
  int hot_reps = 3;  // best-of; see measure_hot_path
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--horizon") == 0) {
      horizon_s = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--sweep-points") == 0) {
      sweep_points = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      engine_workers = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--max-scale") == 0) {
      max_scale = static_cast<std::size_t>(std::atol(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--hot-reps") == 0) {
      hot_reps = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    }
  }

  tb::banner("Engine throughput",
             "hot-path steps/sec + fleet scaling ladder + sweep speedup "
             "(BENCH_engine.json)");

  const HotPathResult hot = measure_hot_path(nodes, horizon_s, engine_workers, hot_reps);
  std::printf("  hot path: %zu nodes, %.0f sim-s x %d runs, %lld steps in %.3f wall-s"
              " (%zu engine workers, best of %d)\n",
              hot.nodes, hot.horizon_s, hot.runs_per_rep, hot.steps, hot.wall_s,
              hot.engine_workers, hot.reps);
  std::printf("  steps/sec:       %.0f\n", hot.steps_per_sec);
  std::printf("  node-steps/sec:  %.0f\n", hot.node_steps_per_sec);
  std::printf("  sim-s per wall-s: %.1f\n", hot.sim_per_wall);

  // Fleet scaling ladder: each point is built, measured, printed and torn
  // down before the next — one rig in memory at a time, so the 100k point
  // reflects steady-state footprint rather than accumulated rigs.
  std::vector<ScalePoint> ladder;
  std::printf("  scaling ladder (node-step budget per point):\n");
  for (std::size_t n : {std::size_t{16}, std::size_t{256}, std::size_t{2048},
                        std::size_t{16384}, std::size_t{100000}}) {
    if (n > max_scale) {
      continue;
    }
    const ScalePoint p = measure_scale(n, engine_workers);
    std::printf("    %7zu nodes: %8.0f steps/s, %11.0f node-steps/s, "
                "%4.0f B/node SoA, %6.0f B/node RSS, %5.0f B/node build heap, "
                "%4.0f B/node-row record, "
                "%zu decisions at %.1f B each (%.1f B/node), "
                "build %.2fs, run %.2fs (%zu workers)\n",
                p.nodes, p.steps_per_sec, p.node_steps_per_sec, p.fleet_bytes_per_node,
                p.rss_bytes_per_node, p.build_heap_bytes_per_node,
                p.record_heap_bytes_per_node_row, p.decisions,
                p.decision_bytes_per_decision, p.decision_bytes_per_node, p.build_wall_s,
                p.wall_s, p.engine_workers);
    ladder.push_back(p);
  }

  const std::size_t hw = runtime::default_thread_count();
  const std::size_t par_threads = threads == 0 ? hw : threads;
  const bool parallelism_available = hw > 1;
  // One pass of the sweep's small points runs in milliseconds, where worker
  // start-up rather than the runtime sets the parallel wall. The points are
  // repeated, doubling the repeats until the serial run takes kMinSweepWallS.
  constexpr double kMinSweepWallS = 0.5;
  const std::vector<ExperimentConfig> points = build_sweep(sweep_points);
  std::vector<ExperimentConfig> sweep_cfgs;
  std::vector<ExperimentResult> serial;
  double serial_wall = 0.0;
  std::size_t repeats = 0;
  while (serial_wall < kMinSweepWallS && !points.empty()) {
    const std::size_t more = std::max<std::size_t>(repeats, 1);
    for (std::size_t r = 0; r < more; ++r) {
      sweep_cfgs.insert(sweep_cfgs.end(), points.begin(), points.end());
    }
    repeats += more;
    serial.clear();  // the shorter run's results are freed outside the timed span
    const auto start = std::chrono::steady_clock::now();
    serial = runtime::run_sweep(sweep_cfgs, {.threads = 1});
    serial_wall = wall_seconds_since(start);
  }

  // Best of kSweepReps timed runs per side, as for the hot path:
  // interference only ever slows a run, so each side's fastest is its
  // closest estimate. The sides alternate, so both sample the same spells
  // of host load. The calibration's last serial run is the first serial
  // sample; every parallel run is checked against it.
  constexpr std::size_t kSweepReps = 9;
  std::vector<double> serial_walls{serial_wall};
  std::vector<double> parallel_walls;
  bool identical = true;
  for (std::size_t rep = 0; rep < kSweepReps; ++rep) {
    if (rep > 0) {
      const auto start = std::chrono::steady_clock::now();
      const auto again = runtime::run_sweep(sweep_cfgs, {.threads = 1});
      serial_walls.push_back(wall_seconds_since(start));
    }
    const auto start = std::chrono::steady_clock::now();
    const auto parallel = runtime::run_sweep(sweep_cfgs, {.threads = par_threads});
    parallel_walls.push_back(wall_seconds_since(start));
    identical = identical && serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
      identical = runs_identical(serial[i].run, parallel[i].run);
    }
  }
  const auto [serial_min, serial_max] =
      std::minmax_element(serial_walls.begin(), serial_walls.end());
  const auto [parallel_min, parallel_max] =
      std::minmax_element(parallel_walls.begin(), parallel_walls.end());
  const double speedup = *serial_min / std::max(*parallel_min, 1e-9);

  std::printf("  sweep: %zu points x %zu repeats, best of %zu: serial %.3f s [max %.3f],"
              " parallel (%zu workers) %.3f s [max %.3f], %.2fx\n",
              points.size(), repeats, kSweepReps, *serial_min, *serial_max, par_threads,
              *parallel_min, *parallel_max, speedup);
  tb::shape_check("parallel sweep results bit-identical to serial", identical);
  if (hw >= 4) {
    tb::shape_check("parallel sweep speedup >= 3x with >= 4 hardware threads", speedup >= 3.0);
  } else if (!parallelism_available) {
    tb::note("  (single hardware thread: sweep speedup and sharded-engine scaling are\n"
             "   not measurable here; the speedup field records overhead, not parallelism)");
  } else {
    tb::note("  (speedup target applies at >= 4 hardware threads; this machine has " +
             std::to_string(hw) + ")");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_engine_throughput\",\n");
  std::fprintf(f, "  \"hot_path\": {\n");
  std::fprintf(f, "    \"nodes\": %zu,\n", hot.nodes);
  std::fprintf(f, "    \"horizon_sim_s\": %.3f,\n", hot.horizon_s);
  std::fprintf(f, "    \"physics_dt_s\": %.3f,\n", hot.physics_dt);
  std::fprintf(f, "    \"engine_workers\": %zu,\n", hot.engine_workers);
  std::fprintf(f, "    \"best_of_reps\": %d,\n", hot.reps);
  std::fprintf(f, "    \"runs_per_rep\": %d,\n", hot.runs_per_rep);
  std::fprintf(f, "    \"engine_steps\": %lld,\n", hot.steps);
  std::fprintf(f, "    \"wall_s\": %.6f,\n", hot.wall_s);
  std::fprintf(f, "    \"steps_per_sec\": %.1f,\n", hot.steps_per_sec);
  std::fprintf(f, "    \"node_steps_per_sec\": %.1f,\n", hot.node_steps_per_sec);
  std::fprintf(f, "    \"sim_seconds_per_wall_second\": %.2f\n", hot.sim_per_wall);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const ScalePoint& p = ladder[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"nodes\": %zu,\n", p.nodes);
    std::fprintf(f, "      \"engine_workers\": %zu,\n", p.engine_workers);
    std::fprintf(f, "      \"engine_steps\": %lld,\n", p.steps);
    std::fprintf(f, "      \"build_wall_s\": %.6f,\n", p.build_wall_s);
    std::fprintf(f, "      \"wall_s\": %.6f,\n", p.wall_s);
    std::fprintf(f, "      \"steps_per_sec\": %.1f,\n", p.steps_per_sec);
    std::fprintf(f, "      \"node_steps_per_sec\": %.1f,\n", p.node_steps_per_sec);
    std::fprintf(f, "      \"fleet_bytes_per_node\": %.1f,\n", p.fleet_bytes_per_node);
    std::fprintf(f, "      \"rss_bytes_per_node\": %.1f,\n", p.rss_bytes_per_node);
    std::fprintf(f, "      \"build_heap_bytes_per_node\": %.1f,\n", p.build_heap_bytes_per_node);
    std::fprintf(f, "      \"record_heap_bytes_per_node_row\": %.1f,\n",
                 p.record_heap_bytes_per_node_row);
    std::fprintf(f, "      \"decisions\": %zu,\n", p.decisions);
    std::fprintf(f, "      \"decision_bytes_per_decision\": %.1f,\n",
                 p.decision_bytes_per_decision);
    std::fprintf(f, "      \"decision_bytes_per_node\": %.1f\n", p.decision_bytes_per_node);
    std::fprintf(f, "    }%s\n", i + 1 < ladder.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"sweep\": {\n");
  std::fprintf(f, "    \"points\": %zu,\n", points.size());
  std::fprintf(f, "    \"repeats\": %zu,\n", repeats);
  std::fprintf(f, "    \"workers\": %zu,\n", par_threads);
  std::fprintf(f, "    \"best_of_reps\": %zu,\n", kSweepReps);
  std::fprintf(f, "    \"serial_wall_s\": %.6f,\n", *serial_min);
  std::fprintf(f, "    \"serial_wall_max_s\": %.6f,\n", *serial_max);
  std::fprintf(f, "    \"parallel_wall_s\": %.6f,\n", *parallel_min);
  std::fprintf(f, "    \"parallel_wall_max_s\": %.6f,\n", *parallel_max);
  std::fprintf(f, "    \"speedup\": %.3f,\n", speedup);
  std::fprintf(f, "    \"speedup_meaningful\": %s,\n",
               parallelism_available ? "true" : "false");
  std::fprintf(f, "    \"identical_to_serial\": %s\n", identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"memory\": {\n");
  std::fprintf(f, "    \"peak_rss_kb\": %zu\n", peak_rss_kb());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"parallelism_available\": %s\n",
               parallelism_available ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  json written: %s\n", out_path.c_str());

  return identical ? 0 : 1;
}
