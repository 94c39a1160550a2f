// thermctld — command-line entry point for the control daemon.
//
//   thermctld --socket /tmp/thermctld.sock [--nodes N] [--nodes-per-rack N]
//             [--horizon S] [--pp P] [--budget W] [--watchdog-timeout S]
//             [--workers N] [--spill PATH] [--workload idle|cpu-burn|bt|lu]
//
// Builds a paper-platform fleet with the hierarchical control plane and the
// live telemetry pipeline on, then serves the socket API until `shutdown`
// (or SIGINT/SIGTERM) ends the run cleanly. See docs/observability.md for
// the protocol reference; tools/thermctld_client.py is a minimal client.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "daemon/daemon.hpp"

namespace {

thermctl::daemon::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) {
    g_daemon->post_shutdown();
  }
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--nodes N] [--nodes-per-rack N] [--horizon S]\n"
               "          [--pp P] [--budget W] [--watchdog-timeout S] [--workers N]\n"
               "          [--spill PATH] [--workload idle|cpu-burn|bt|lu]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace thermctl;

  std::string socket_path;
  std::string spill_path;
  std::string workload = "cpu-burn";
  std::size_t nodes = 64;
  std::size_t nodes_per_rack = 16;
  double horizon_s = 600.0;
  int pp = core::PolicyParam::moderate().value;
  double budget_w = 0.0;
  double watchdog_timeout_s = 2.0;
  int workers = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--spill") {
      spill_path = next();
    } else if (arg == "--workload") {
      workload = next();
    } else if (arg == "--nodes") {
      nodes = static_cast<std::size_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--nodes-per-rack") {
      nodes_per_rack = static_cast<std::size_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--horizon") {
      horizon_s = std::strtod(next(), nullptr);
    } else if (arg == "--pp") {
      pp = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--budget") {
      budget_w = std::strtod(next(), nullptr);
    } else if (arg == "--watchdog-timeout") {
      watchdog_timeout_s = std::strtod(next(), nullptr);
    } else if (arg == "--workers") {
      workers = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else {
      usage(argv[0]);
    }
  }
  if (socket_path.empty() || nodes == 0 || nodes_per_rack == 0) {
    usage(argv[0]);
  }

  daemon::DaemonConfig dc;
  dc.socket_path = socket_path;
  dc.watchdog_timeout_s = watchdog_timeout_s;

  core::ExperimentConfig& cfg = dc.experiment;
  cfg = core::paper_platform();
  cfg.name = "thermctld";
  cfg.nodes = nodes;
  cfg.pp = core::PolicyParam{pp};
  cfg.dvfs = core::DvfsPolicyKind::kTdvfs;
  cfg.engine.horizon = Seconds{horizon_s};
  cfg.engine.workers = workers;
  if (workload == "idle") {
    cfg.workload = core::WorkloadKind::kIdle;
  } else if (workload == "cpu-burn") {
    cfg.workload = core::WorkloadKind::kCpuBurn;
    // The burn lasts the whole run. run_experiment stretches a cpu-burn
    // horizon to twice the burn, so the daemon stops the engine itself at
    // the horizon it was given.
    cfg.cpu_burn_duration = Seconds{horizon_s};
    cfg.on_rig_built = [horizon_s](const core::RigView& rig) {
      rig.engine->add_periodic(Seconds{horizon_s},
                               [engine = rig.engine](SimTime) { engine->request_stop(); });
    };
  } else if (workload == "bt") {
    cfg.workload = core::WorkloadKind::kNpbBt;
  } else if (workload == "lu") {
    cfg.workload = core::WorkloadKind::kNpbLu;
  } else {
    usage(argv[0]);
  }

  cfg.control_plane.enabled = true;
  cfg.control_plane.room_enabled = true;
  cfg.control_plane.plane.nodes_per_rack = nodes_per_rack;
  if (budget_w > 0.0) {
    cfg.control_plane.plane.room_budget_w = budget_w;
  }

  cfg.telemetry.metrics = true;
  cfg.telemetry.rollup.enabled = true;
  cfg.telemetry.rollup.interval_s = 1.0;
  cfg.telemetry.alerts.push_back(
      {"rack_max_temp_high", obs::AlertKind::kMaxTemp, 70.0, 3.0, true});
  cfg.telemetry.alerts.push_back(
      {"plane_failsafe", obs::AlertKind::kFailsafeRate, 1.0, 0.0, false});
  if (!spill_path.empty()) {
    cfg.telemetry.trace = true;
    cfg.telemetry.spill = true;
    cfg.telemetry.spill_path = spill_path;
  }

  daemon::Daemon daemon{dc};
  g_daemon = &daemon;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr, "thermctld: %zu nodes (%zu/rack), socket %s\n", nodes, nodes_per_rack,
               socket_path.c_str());
  const core::ExperimentResult result = daemon.run();
  g_daemon = nullptr;

  const daemon::DaemonStats stats = daemon.stats();
  std::fprintf(stderr,
               "thermctld: done t=%.1fs rounds=%llu cmds=%llu/%llu failsafe=%llu "
               "clients=%llu requests=%llu\n",
               result.run.exec_time_s,
               static_cast<unsigned long long>(stats.control_rounds),
               static_cast<unsigned long long>(stats.commands_applied),
               static_cast<unsigned long long>(stats.commands_enqueued),
               static_cast<unsigned long long>(stats.failsafe_entries),
               static_cast<unsigned long long>(stats.clients_accepted),
               static_cast<unsigned long long>(stats.requests_served));
  return 0;
}
