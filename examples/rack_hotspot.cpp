// Rack hot spot: per-node unified control in an 8-node rack with uneven
// inlet temperatures — the data-center phenomenon motivating the paper's
// introduction ("hot spots or pockets of elevated temperatures ... can be
// easily formed when room air circulation is not effective").
//
// Nodes 5-6 sit in a recirculation pocket (inlet +9 degC). The example runs
// the same parallel job twice — uncontrolled (static fan curves) and with
// per-node unified controllers — and compares the hot-spot nodes' fate. It
// also demonstrates the out-of-band plane: an operator script watches every
// node over IPMI while the job runs.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/control_bank.hpp"
#include "core/fan_policy.hpp"
#include "workload/app.hpp"
#include "workload/npb.hpp"

namespace {

using namespace thermctl;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kHot1 = 5;
constexpr std::size_t kHot2 = 6;

struct RackRun {
  cluster::RunResult result;
  int prochot_events = 0;
  double hot_node_max = 0.0;
  double cool_node_max = 0.0;
};

RackRun run_rack(bool unified) {
  cluster::NodeParams params;
  cluster::Cluster rack{kNodes, params};
  for (std::size_t i = 0; i < kNodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.set_inlet_temperature(kHot1, Celsius{37.0});
  rack.set_inlet_temperature(kHot2, Celsius{37.0});
  rack.settle_all();

  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{400.0};
  cluster::Engine engine{rack, engine_cfg};

  Rng rng{404};
  workload::NpbParams npb = workload::bt_class_b();
  npb.iterations = 120;
  workload::ParallelApp app{"BT.B.8", workload::make_npb_programs(npb, kNodes, rng)};
  std::vector<std::size_t> mapping(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    mapping[i] = i;
  }
  engine.attach_app(app, mapping);

  core::ControlBank bank{kNodes, rack.fleet()->sensor().last_degc.data()};
  if (unified) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      core::UnifiedConfig cfg;
      cfg.pp = core::PolicyParam{40};  // slightly temperature-oriented
      // Threshold sized to the pocket: +9 degC inlet shifts the whole
      // envelope, and a 51 degC trigger would pin the hot nodes at the
      // bottom of the ladder (and barrier-stall the rest of the job).
      cfg.tdvfs.threshold = Celsius{56.0};
      bank.emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
    }
    engine.add_periodic(params.sample_period, [&bank](SimTime now) { bank.tick_unified(now); });
  } else {
    for (std::size_t i = 0; i < kNodes; ++i) {
      core::StaticFanPolicy policy{rack.node(i).fan_driver(), core::StaticFanPolicy::Curve{},
                                   DutyCycle{100.0}};
      policy.apply();
    }
  }

  // Operator-side out-of-band monitoring: poll every BMC once per 10 s.
  engine.add_periodic(Seconds{10.0}, [&rack](SimTime now) {
    double hottest = 0.0;
    int hottest_node = -1;
    for (int n : rack.ipmi().nodes()) {
      sysfs::SensorReading reading;
      if (rack.ipmi().get_sensor_reading(n, 1, reading) == sysfs::IpmiCompletion::kOk &&
          reading.value > hottest) {
        hottest = reading.value;
        hottest_node = n;
      }
    }
    if (hottest > 56.0) {
      std::printf("  [ipmi t=%5.0fs] hottest node %d at %.0f degC\n", now.seconds(),
                  hottest_node, hottest);
    }
  });

  RackRun out;
  out.result = engine.run();
  for (std::size_t i = 0; i < kNodes; ++i) {
    out.prochot_events += out.result.summaries[i].prochot_events;
  }
  out.hot_node_max =
      std::max(out.result.summaries[kHot1].max_die_temp, out.result.summaries[kHot2].max_die_temp);
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i != kHot1 && i != kHot2) {
      out.cool_node_max = std::max(out.cool_node_max, out.result.summaries[i].max_die_temp);
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("8-node rack, BT across all nodes, nodes %zu-%zu in a +9 degC hot pocket\n\n",
              kHot1, kHot2);

  std::printf("--- baseline: per-node traditional static fan curves ---\n");
  const RackRun baseline = run_rack(/*unified=*/false);
  std::printf("--- unified: per-node dynamic fan + tDVFS (Pp=40) ---\n");
  const RackRun unified = run_rack(/*unified=*/true);

  std::printf("\n%-34s %14s %14s\n", "", "static", "unified");
  std::printf("%-34s %11.1f s %11.1f s\n", "job execution time",
              baseline.result.exec_time_s, unified.result.exec_time_s);
  std::printf("%-34s %10.1f C %10.1f C\n", "hot-pocket nodes, max die",
              baseline.hot_node_max, unified.hot_node_max);
  std::printf("%-34s %10.1f C %10.1f C\n", "rest of rack, max die", baseline.cool_node_max,
              unified.cool_node_max);
  std::printf("%-34s %13d %13d\n", "PROCHOT events (rack total)", baseline.prochot_events,
              unified.prochot_events);
  std::printf("%-34s %11.1f W %11.1f W\n", "avg per-node wall power",
              baseline.result.avg_power_w(), unified.result.avg_power_w());

  const double slowdown = (unified.result.exec_time_s - baseline.result.exec_time_s) /
                          baseline.result.exec_time_s * 100.0;
  std::printf("\nunified control cooled the hot pocket by %.1f degC for %.1f%% job slowdown\n",
              baseline.hot_node_max - unified.hot_node_max, slowdown);
  return 0;
}
