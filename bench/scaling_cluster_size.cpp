// Scaling study: unified thermal control on larger clusters (§5 future
// work: "study how our thermal controllers scale in large-scale clusters").
//
// Per-node controllers are fully decentralized — each reads its own sensor
// and actuates its own fan/DVFS — so control *quality* should be scale-free
// while cluster-wide outcomes (hottest node, total transitions) grow
// predictably. Two regimes share one rig construction (fleet-backed SoA
// cluster, hot-spot inlets, per-node unified control):
//
//   * quality points (4..32 nodes): the same BT-per-node job at full
//     horizon, comparing execution time and thermal outcomes across scale;
//   * throughput ladder (256..100k nodes): synthetic per-node loads under a
//     fixed node-step budget, reporting simulation rate and bytes/node.
//
// Every point is built, run, printed and destroyed before the next one
// starts — results stream one row at a time and exactly one rig is ever in
// memory, which is what lets the 100k-node point fit a CI memory budget.
//
// Usage: scaling_cluster_size [--max-nodes N]   (default 100000)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/control_bank.hpp"
#include "core/unified_controller.hpp"
#include "workload/app.hpp"
#include "workload/npb.hpp"

namespace {

using namespace thermctl;
using namespace thermctl::core;

struct Outcome {
  std::size_t nodes = 0;
  bool quality = false;  // full-horizon BT point vs budgeted throughput point
  double exec_s = 0.0;
  double hottest = 0.0;
  double avg_temp = 0.0;
  std::uint64_t transitions = 0;
  double sim_rate = 0.0;        // simulated seconds per wall second
  double node_steps_per_sec = 0.0;
  double bytes_per_node = 0.0;  // exact SoA footprint from FleetState
};

Outcome run_scale(std::size_t nodes, bool quality) {
  cluster::NodeParams params;
  cluster::Cluster rack{nodes, params};
  for (std::size_t i = 0; i < nodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  // One hot-spot node per 8 (recirculation pockets scale with rack count).
  for (std::size_t i = 7; i < nodes; i += 8) {
    rack.set_inlet_temperature(i, Celsius{35.0});
  }
  if (quality) {
    rack.settle_all();
  }

  cluster::EngineConfig engine_cfg;
  if (quality) {
    engine_cfg.horizon = Seconds{300.0};
  } else {
    // Fixed node-step budget: every ladder point costs about the same wall
    // time no matter the scale.
    constexpr double kNodeStepBudget = 4e6;
    const long long steps = std::clamp(
        static_cast<long long>(kNodeStepBudget / static_cast<double>(nodes)), 40LL, 20000LL);
    engine_cfg.horizon =
        Seconds{static_cast<double>(steps) * engine_cfg.physics_dt.value()};
  }
  cluster::Engine engine{rack, engine_cfg};

  std::unique_ptr<workload::ParallelApp> app;
  if (quality) {
    Rng rng{nodes * 131 + 7};
    workload::NpbParams npb = workload::bt_class_b();
    npb.iterations = 100;
    app = std::make_unique<workload::ParallelApp>(
        "BT", workload::make_npb_programs(npb, static_cast<int>(nodes), rng));
    std::vector<std::size_t> mapping(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      mapping[i] = i;
    }
    engine.attach_app(*app, mapping);
  } else {
    // A 100k-rank barrier-coupled program would dominate memory; the ladder
    // drives out-of-phase synthetic loads through the same control stack.
    for (std::size_t i = 0; i < nodes; ++i) {
      engine.set_node_load_fn(i, [i](SimTime t) {
        const double x = t.seconds() * 0.7 + static_cast<double>(i) * 0.13;
        return Utilization{0.55 + 0.35 * std::sin(x)};
      });
    }
  }

  ControlBank bank{nodes, rack.fleet()->sensor().last_degc.data()};
  for (std::size_t i = 0; i < nodes; ++i) {
    UnifiedConfig cfg;
    cfg.pp = PolicyParam{50};
    cfg.tdvfs.threshold = Celsius{53.0};
    bank.emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
  }
  engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });

  const auto wall_start = std::chrono::steady_clock::now();
  const cluster::RunResult run = engine.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  Outcome o;
  o.nodes = nodes;
  o.quality = quality;
  o.exec_s = run.exec_time_s;
  o.hottest = run.max_die_temp();
  o.avg_temp = run.avg_die_temp();
  o.transitions = run.total_freq_transitions();
  o.sim_rate = run.times.back() / std::max(wall_s, 1e-9);
  o.node_steps_per_sec = run.times.back() / engine_cfg.physics_dt.value() *
                         static_cast<double>(nodes) / std::max(wall_s, 1e-9);
  o.bytes_per_node =
      static_cast<double>(rack.fleet()->memory_bytes()) / static_cast<double>(nodes);
  return o;
}

void print_row(const Outcome& o) {
  std::printf("  %7zu | %10s | %8.1f | %7.1f | %12llu | %9.1f | %12.0f | %6.0f\n", o.nodes,
              o.quality ? "BT-300s" : "budgeted",
              o.quality ? o.exec_s : 0.0, o.hottest,
              static_cast<unsigned long long>(o.transitions), o.sim_rate,
              o.node_steps_per_sec, o.bytes_per_node);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  namespace tb = thermctl::bench;

  std::size_t max_nodes = 100000;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--max-nodes") == 0) {
      max_nodes = static_cast<std::size_t>(std::atol(argv[i + 1]));
    }
  }

  tb::banner("Scaling",
             "per-node unified control from 4-node racks (BT + hot spots) to a "
             "100k-node fleet");

  std::printf("    nodes |   workload | exec (s) | hot die | freq changes | sim-s/s  |"
              " node-steps/s | B/node\n");

  // Quality points: identical job across scale; rows stream as they finish,
  // one rig in memory at a time.
  const std::vector<std::size_t> quality_scales{4, 8, 16, 32};
  std::vector<Outcome> quality;
  for (std::size_t n : quality_scales) {
    if (n > max_nodes) {
      continue;
    }
    quality.push_back(run_scale(n, true));
    print_row(quality.back());
  }

  // Throughput ladder out to fleet scale.
  for (std::size_t n : {std::size_t{256}, std::size_t{2048}, std::size_t{16384},
                        std::size_t{100000}}) {
    if (n > max_nodes) {
      continue;
    }
    print_row(run_scale(n, false));
  }

  tb::note("decentralized per-node control: thermal quality should not degrade with\n"
           "scale; only aggregate counts grow");

  tb::shape_check("hottest die stays controlled (< 60 degC) at every quality scale", [&] {
    for (const Outcome& o : quality) {
      if (o.hottest >= 60.0) {
        return false;
      }
    }
    return true;
  }());
  tb::shape_check("average temperature is scale-free (spread < 2 degC)", [&] {
    double lo = 1e9;
    double hi = -1e9;
    for (const Outcome& o : quality) {
      lo = std::min(lo, o.avg_temp);
      hi = std::max(hi, o.avg_temp);
    }
    return hi - lo < 2.0;
  }());
  tb::shape_check("execution time grows only mildly with scale (barrier tail, < 10%)",
                  quality.empty() ||
                      quality.back().exec_s < quality.front().exec_s * 1.10);
  return 0;
}
