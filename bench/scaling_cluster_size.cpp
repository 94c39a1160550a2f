// Scaling study: unified thermal control on larger clusters (§5 future
// work: "study how our thermal controllers scale in large-scale clusters").
//
// Per-node controllers are fully decentralized — each reads its own sensor
// and actuates its own fan/DVFS — so control *quality* should be scale-free
// while cluster-wide outcomes (hottest node, total transitions) grow
// predictably. Every point runs the same BT-per-node job at full horizon on
// a fleet-backed SoA cluster with hot-spot inlets and one unified
// ControlBank, comparing execution time and thermal outcomes from 4 to 32
// nodes. Simulation throughput out to 100k nodes is micro_engine_throughput's
// scaling ladder.
//
// Usage: scaling_cluster_size
#include <algorithm>
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
  double exec_s = 0.0;
  double hottest = 0.0;
  double avg_temp = 0.0;
  std::uint64_t transitions = 0;
  double bytes_per_node = 0.0;  // exact SoA footprint from FleetState
};

Outcome run_scale(std::size_t nodes) {
  cluster::NodeParams params;
  cluster::Cluster rack{nodes, params};
  for (std::size_t i = 0; i < nodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  // One hot-spot node per 8 (recirculation pockets scale with rack count).
  for (std::size_t i = 7; i < nodes; i += 8) {
    rack.set_inlet_temperature(i, Celsius{35.0});
  }
  rack.settle_all();

  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{300.0};
  cluster::Engine engine{rack, engine_cfg};

  Rng rng{nodes * 131 + 7};
  workload::NpbParams npb = workload::bt_class_b();
  npb.iterations = 100;
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
    cfg.tdvfs.threshold = Celsius{53.0};
    bank.emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
  }
  engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });

  const cluster::RunResult run = engine.run();
  Outcome o;
  o.nodes = nodes;
  o.exec_s = run.exec_time_s;
  o.hottest = run.max_die_temp();
  o.avg_temp = run.avg_die_temp();
  o.transitions = run.total_freq_transitions();
  o.bytes_per_node =
      static_cast<double>(rack.fleet()->memory_bytes()) / static_cast<double>(nodes);
  return o;
}

}  // namespace

int main() {
  namespace tb = thermctl::bench;

  tb::banner("Scaling", "per-node unified control from 4- to 32-node racks (BT + hot spots)");

  std::printf("    nodes | exec (s) | hot die | avg die | freq changes | B/node\n");
  std::vector<Outcome> quality;
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    const Outcome& o = quality.emplace_back(run_scale(n));
    std::printf("  %7zu | %8.1f | %7.1f | %7.2f | %12llu | %6.0f\n", o.nodes, o.exec_s,
                o.hottest, o.avg_temp, static_cast<unsigned long long>(o.transitions),
                o.bytes_per_node);
  }

  tb::note("decentralized per-node control: thermal quality should not degrade with\n"
           "scale; only aggregate counts grow");

  tb::shape_check("hottest die stays controlled (< 60 degC) at every scale", [&] {
    return std::all_of(quality.begin(), quality.end(),
                       [](const Outcome& o) { return o.hottest < 60.0; });
  }());
  tb::shape_check("average temperature is scale-free (spread < 2 degC)", [&] {
    const auto [lo, hi] = std::minmax_element(
        quality.begin(), quality.end(),
        [](const Outcome& a, const Outcome& b) { return a.avg_temp < b.avg_temp; });
    return hi->avg_temp - lo->avg_temp < 2.0;
  }());
  tb::shape_check("execution time grows only mildly with scale (barrier tail, < 10%)",
                  quality.back().exec_s < quality.front().exec_s * 1.10);
  return 0;
}
