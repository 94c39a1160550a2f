// Technique comparison: load migration vs DVFS for a rack hot spot.
//
// Related-work positioning made quantitative: the paper's in-band DVFS slows
// the hot node (and through barriers, the whole BSP job) for as long as the
// hot spot lasts; migration (Heath, Powell et al.) pays one checkpoint stall
// to move the work somewhere cool — a better deal when a spare node exists
// and the ambient cause persists. The unified framework supports both; this
// bench shows where each wins.
//
// Scenario: 5 nodes, 4-rank BT job, one idle spare. Node 1 sits in a +11 degC
// recirculation pocket.
#include <memory>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/control_bank.hpp"
#include "core/load_balancer.hpp"
#include "workload/app.hpp"
#include "workload/npb.hpp"

namespace {

using namespace thermctl;
using namespace thermctl::core;

constexpr std::size_t kNodes = 5;
constexpr std::size_t kHotNode = 1;

struct Outcome {
  double exec_s;
  double hottest;
  double avg_power;
  int migrations;
  std::uint64_t freq_changes;
};

enum class Response { kNone, kDvfs, kMigration };

Outcome run_response(Response response) {
  cluster::NodeParams params;
  cluster::Cluster rack{kNodes, params};
  for (std::size_t i = 0; i < kNodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.set_inlet_temperature(kHotNode, Celsius{40.5});
  rack.settle_all();

  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{400.0};
  cluster::Engine engine{rack, engine_cfg};

  Rng rng{2211};
  workload::NpbParams npb = workload::bt_class_b();
  npb.iterations = 150;
  workload::ParallelApp app{"BT", workload::make_npb_programs(npb, 4, rng)};
  engine.attach_app(app, {0, 1, 2, 3});  // node 4 is the spare

  ControlBank bank{kNodes, rack.fleet()->sensor().last_degc.data()};
  std::unique_ptr<ThermalLoadBalancer> balancer;

  if (response == Response::kDvfs) {
    for (std::size_t i = 0; i < 4; ++i) {
      TdvfsConfig tc;
      tc.pp = PolicyParam{50};
      tc.threshold = Celsius{55.0};
      bank.emplace_tdvfs(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), tc);
    }
    engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_tdvfs(now); });
  } else if (response == Response::kMigration) {
    LoadBalancerConfig bc;
    bc.min_hot_temp = Celsius{55.0};
    bc.imbalance_threshold = CelsiusDelta{6.0};
    bc.migration_cost = Seconds{4.0};
    balancer = std::make_unique<ThermalLoadBalancer>(rack, engine, bc);
    ThermalLoadBalancer* raw = balancer.get();
    engine.add_periodic(Seconds{5.0}, [raw](SimTime now) { raw->on_tick(now); });
  }

  const cluster::RunResult run = engine.run();
  return Outcome{run.exec_time_s, run.max_die_temp(), run.avg_power_w(),
                 engine.migrations(), run.total_freq_transitions()};
}

}  // namespace

int main() {
  namespace tb = thermctl::bench;
  tb::banner("Comparison", "load migration vs DVFS for a persistent hot spot (BT.4 + spare)");

  const Outcome none = run_response(Response::kNone);
  const Outcome dvfs = run_response(Response::kDvfs);
  const Outcome migration = run_response(Response::kMigration);

  TextTable table{{"response", "exec (s)", "hottest die (degC)", "avg power (W)",
                   "migrations", "freq changes"}};
  auto row = [&table](const char* name, const Outcome& o) {
    table.add_row(name,
                  {o.exec_s, o.hottest, o.avg_power, static_cast<double>(o.migrations),
                   static_cast<double>(o.freq_changes)},
                  1);
  };
  row("none (ride it out)", none);
  row("tDVFS @55 on every node", dvfs);
  row("migrate to the spare", migration);
  std::printf("%s", table.render().c_str());
  tb::note("DVFS pays a *continuous* tax while the hot spot persists; migration pays\n"
           "one checkpoint stall and then runs at full speed on the spare");

  tb::shape_check("unmanaged run is the hottest",
                  none.hottest >= dvfs.hottest && none.hottest >= migration.hottest);
  tb::shape_check("migration actually happened and resolved the hot spot",
                  migration.migrations >= 1 && migration.hottest < none.hottest - 2.0);
  tb::shape_check("migration is faster than sustained DVFS for a persistent hot spot",
                  migration.exec_s < dvfs.exec_s);
  tb::shape_check("DVFS still beats doing nothing on peak temperature",
                  dvfs.hottest < none.hottest - 1.0);
  return 0;
}
