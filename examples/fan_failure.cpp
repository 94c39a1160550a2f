// Fan failure and in-band rescue: the thermal-emergency scenario from the
// paper's related work (Choi et al.'s ThermoStat "considered the use of DVFS
// in response to fan failure") made concrete on this stack.
//
// Timeline:
//   t = 0 s    node runs a sustained job under dynamic fan control
//   t = 60 s   the fan rotor seizes (injected fault)
//   ...        the unified controller's in-band half (tDVFS) takes over as
//              temperature crosses the threshold
//   t = 240 s  a technician replaces the fan (fault cleared); tDVFS restores
//              full frequency once the node is consistently cool
//
// Run twice — with and without the controller — to see the difference
// between a managed incident and a PROCHOT/THERMTRIP emergency.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/unified_controller.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace thermctl;

struct IncidentReport {
  double max_die = 0.0;
  int prochot_events = 0;
  double prochot_seconds = 0.0;
  bool halted = false;
  double final_freq = 0.0;
  std::vector<core::TdvfsEvent> dvfs_events;
};

IncidentReport run_incident(bool with_controller) {
  cluster::NodeParams params;
  cluster::Cluster cluster{1, params};
  cluster::Node& node = cluster.node(0);
  node.set_utilization(Utilization{0.02});
  node.settle();

  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{400.0};
  cluster::Engine engine{cluster, engine_cfg};
  const auto load = workload::gradual_profile(Seconds{400.0}, 0.95);
  engine.set_node_load(0, &load);

  std::unique_ptr<core::UnifiedController> controller;
  if (with_controller) {
    core::UnifiedConfig cfg;
    cfg.pp = core::PolicyParam{35};
    cfg.tdvfs.threshold = Celsius{54.0};
    controller = std::make_unique<core::UnifiedController>(node.hwmon(), node.cpufreq(), cfg);
    core::UnifiedController* raw = controller.get();
    engine.add_periodic(params.sample_period, [raw](SimTime now) { raw->on_sample(now); });
  }

  // Fault schedule: seize at 60 s, repair at 240 s.
  engine.add_periodic(Seconds{1.0}, [&node](SimTime now) {
    const double t = now.seconds();
    if (t >= 60.0 && t < 61.0 && !node.fan().faulted()) {
      node.fan().inject_stuck_fault();
      std::printf("  [t=%5.0fs] FAN ROTOR SEIZED\n", t);
    }
    if (t >= 240.0 && t < 241.0 && node.fan().faulted()) {
      node.fan().clear_fault();
      std::printf("  [t=%5.0fs] fan replaced\n", t);
    }
  });

  const cluster::RunResult result = engine.run();
  IncidentReport report;
  report.max_die = result.max_die_temp();
  report.prochot_events = result.summaries[0].prochot_events;
  report.prochot_seconds = result.summaries[0].prochot_seconds;
  report.halted = node.halted();
  report.final_freq = node.cpu().frequency().value();
  if (controller) {
    const auto events = controller->dvfs().events();
    report.dvfs_events.assign(events.begin(), events.end());
  }
  return report;
}

}  // namespace

int main() {
  std::printf("--- incident WITHOUT thermal management ---\n");
  const IncidentReport bare = run_incident(false);
  std::printf("--- incident WITH unified controller (Pp=35, threshold 54 degC) ---\n");
  const IncidentReport managed = run_incident(true);

  if (!managed.dvfs_events.empty()) {
    std::printf("\ncontroller's in-band response:\n");
    for (const auto& e : managed.dvfs_events) {
      std::printf("  t=%6.1fs  %.1f -> %.1f GHz\n", e.time_s, e.from_ghz, e.to_ghz);
    }
  }

  std::printf("\n%-32s %12s %12s\n", "", "unmanaged", "managed");
  std::printf("%-32s %9.1f C %9.1f C\n", "max die temperature", bare.max_die, managed.max_die);
  std::printf("%-32s %12d %12d\n", "PROCHOT events", bare.prochot_events,
              managed.prochot_events);
  std::printf("%-32s %10.1f s %10.1f s\n", "time clock-throttled", bare.prochot_seconds,
              managed.prochot_seconds);
  std::printf("%-32s %12s %12s\n", "THERMTRIP halt",
              bare.halted ? "YES" : "no", managed.halted ? "YES" : "no");
  std::printf("%-32s %8.1f GHz %8.1f GHz\n", "frequency at end of run", bare.final_freq,
              managed.final_freq);

  std::printf("\nunmanaged, the node rides PROCHOT (hardware clock-gating, invisible to\n"
              "the OS and brutal to performance); managed, tDVFS absorbs the incident\n"
              "with explicit, bounded P-state changes and restores speed after repair.\n");
  return 0;
}
