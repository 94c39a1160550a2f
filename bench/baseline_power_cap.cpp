// Power capping (Lefurgy et al., related work §2): budget tracking accuracy
// and its thermal side effect on this platform.
//
// Sweep the package power budget under cpu-burn; for each budget report the
// settled package power (must sit at or under budget), the time spent over
// budget during convergence, the frequency the capper settled at, and the
// resulting die temperature — power capping is implicitly a thermal control,
// which is why the paper's unification matters.
#include <memory>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/power_cap.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace thermctl;
  using namespace thermctl::core;
  namespace tb = thermctl::bench;

  tb::banner("Baseline", "DVFS power capping: budget tracking + thermal side effect");

  struct Row {
    double budget;
    double settled_power;
    double overshoot_s;
    double settled_ghz;
    double avg_temp;
  };
  std::vector<Row> rows;

  for (double budget : {70.0, 55.0, 45.0, 30.0, 20.0}) {
    cluster::NodeParams params;
    params.sensor.noise_sigma_degc = 0.0;
    cluster::Cluster rack{1, params};
    rack.node(0).set_utilization(Utilization{0.02});
    rack.node(0).settle();

    PowerCapConfig cfg;
    cfg.budget = Watts{budget};
    PowerCapper capper{rack.node(0).rapl(), rack.node(0).cpufreq(), cfg};

    cluster::EngineConfig engine_cfg;
    engine_cfg.horizon = Seconds{180.0};
    cluster::Engine engine{rack, engine_cfg};
    const auto burn = workload::gradual_profile(Seconds{300.0});
    engine.set_node_load(0, &burn);
    engine.add_periodic(PowerCapper::kInterval,
                        [&capper](SimTime now) { capper.on_interval(now); });
    const cluster::RunResult run = engine.run();

    rows.push_back(Row{budget, capper.last_power_w(), capper.overshoot_seconds(),
                       rack.node(0).cpu().frequency().value(), run.avg_die_temp()});
  }

  TextTable table{{"budget (W)", "settled power (W)", "time over budget (s)",
                   "settled freq (GHz)", "avg die (degC)"}};
  for (const Row& row : rows) {
    table.add_row(format_number(row.budget, 0),
                  {row.settled_power, row.overshoot_s, row.settled_ghz, row.avg_temp}, 1);
  }
  std::printf("%s", table.render().c_str());
  tb::note("the 20 W budget is below the slowest P-state's package power: the capper\n"
           "pins the floor and the residual overshoot is physics, not control error —\n"
           "capping and thermal control share an actuator, which is the coordination\n"
           "problem the paper's unified framework exists to solve");

  bool tracked = true;
  for (const Row& row : rows) {
    if (row.budget >= 25.0 && row.settled_power > row.budget + 1.0) {
      tracked = false;
    }
  }
  tb::shape_check("settled power respects every achievable budget", tracked);
  tb::shape_check("tighter budgets settle at lower frequencies",
                  rows.back().settled_ghz <= rows.front().settled_ghz);
  tb::shape_check("tighter budgets run cooler (capping is thermal control)",
                  rows[3].avg_temp < rows[0].avg_temp - 3.0);
  tb::shape_check("convergence overshoot stays under 10 s per run",
                  [&] {
                    for (const Row& row : rows) {
                      if (row.budget >= 25.0 && row.overshoot_s > 10.0) {
                        return false;
                      }
                    }
                    return true;
                  }());
  return 0;
}
