// daemon_scrape: thermctld serving scrapes while it controls a fleet.
//
// A Daemon hosts a 2048-node rig (control plane + rollup) on one engine
// worker. Exactly two client threads, one connection each, run a closed
// loop over the UNIX socket: GET /metrics, status and ping reads, with a
// set-policy / set-budget write as every 50th request. It is the only
// workload through the socket server, and the writes sit beside the reads,
// so a read-path gain that delays command application shows here.
//
// setup_s runs from Daemon::run() to the first answered request showing a
// live control round. The server thread answers `ping` before the rig
// exists, so the first pong alone would time only the socket bind.
//
// Traced mode times Daemon::handle_request in-process from one thread
// before the clients start, and adds a dark phase (no clients) after them
// for the engine's unloaded rate.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace thermbench {

namespace core = thermctl::core;

namespace {

constexpr int kClients = 2;
constexpr int kWriteEvery = 50;
constexpr int kSetups = 5;
constexpr double kControlPeriodS = 0.25;
constexpr double kDarkPhaseS = 5.0;
constexpr int kHandlerReps = 2000;
// Each timed set-policy enqueues a re-tune of every node, so it gets few
// reps, and the client phase waits until they are applied.
constexpr int kWriteHandlerReps = 20;

enum Kind { kMetrics, kStatus, kPing, kSetPolicy, kSetBudget, kKinds };
constexpr const char* kKindNames[kKinds] = {"metrics", "status", "ping", "set-policy",
                                            "set-budget"};

thermctl::daemon::DaemonConfig make_config(const Options& options, std::size_t nodes, int k) {
  thermctl::daemon::DaemonConfig dc;
  dc.socket_path = options.scratch + "/thermbench-" + std::to_string(::getpid()) + "-" +
                   std::to_string(k) + ".sock";
  dc.control_period_s = kControlPeriodS;
  core::ExperimentConfig& cfg = dc.experiment;
  cfg = core::paper_platform();
  cfg.name = "daemon-scrape";
  cfg.seed = options.seed;
  cfg.nodes = nodes;
  cfg.workload = core::WorkloadKind::kCpuBurn;
  // Ends via `shutdown`; the horizon only has to outlast the run.
  cfg.cpu_burn_duration = thermctl::Seconds{10000.0};
  // Per-node series are not what this workload measures. A coarse record
  // period keeps them small, so peak memory does not grow with how many
  // simulated seconds a run happens to cover.
  cfg.engine.record_period = thermctl::Seconds{100.0};
  cfg.engine.workers = 1;
  cfg.fan = core::FanPolicyKind::kDynamic;
  cfg.dvfs = core::DvfsPolicyKind::kTdvfs;
  cfg.control_plane.enabled = true;
  cfg.control_plane.plane.nodes_per_rack = 64;
  cfg.telemetry.metrics = true;
  cfg.telemetry.rollup.enabled = true;
  cfg.telemetry.rollup.interval_s = 1.0;
  return dc;
}

int connect_to(const std::string& path, Clock::time_point deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  while (Clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return -1;
}

/// One request line -> the full response up to `terminator`, or "" when
/// the connection failed mid-exchange.
std::string exchange(int fd, const std::string& line, const char* terminator) {
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
    if (n <= 0) {
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  const std::size_t tlen = std::strlen(terminator);
  std::string response;
  char chunk[16384];
  while (response.size() < tlen ||
         response.compare(response.size() - tlen, tlen, terminator) != 0) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      return {};
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

std::uint64_t status_rounds(const std::string& status) {
  const std::size_t at = status.find(" rounds=");
  return at == std::string::npos ? 0 : std::strtoull(status.c_str() + at + 8, nullptr, 10);
}

struct Request {
  Kind kind;
  std::string line;
  std::string expect;  // exact response, or prefix for status / set-budget
};

/// The closed-loop mix: request k of a client.
Request nth_request(long k, double budget_lo_w, double budget_hi_w) {
  if (k % kWriteEvery == kWriteEvery - 1) {
    const long write = k / kWriteEvery;
    if (write % 2 == 0) {
      const int pp = (write / 2) % 2 == 0 ? 40 : 60;
      return {kSetPolicy, "set-policy " + std::to_string(pp), "OK pp=" + std::to_string(pp) + "\n"};
    }
    const double w = (write / 2) % 2 == 0 ? budget_lo_w : budget_hi_w;
    return {kSetBudget, "set-budget " + std::to_string(w), "OK budget_w="};
  }
  switch (k % 3) {
    case 0:
      return {kMetrics, "GET /metrics", ""};
    case 1:
      return {kStatus, "status", "OK t_s="};
    default:
      return {kPing, "ping", "OK pong\n"};
  }
}

bool well_formed(const Request& req, const std::string& response) {
  switch (req.kind) {
    case kMetrics:
      return response == "# EOF\n" ||
             (response.find("thermctl_sim_time_seconds") != std::string::npos &&
              response.size() >= 6 && response.compare(response.size() - 6, 6, "# EOF\n") == 0);
    case kPing:
    case kSetPolicy:
      return response == req.expect;
    case kStatus:
    case kSetBudget:
      return response.rfind(req.expect, 0) == 0 && response.back() == '\n' &&
             response.find('\n') == response.size() - 1;
    case kKinds:
      break;
  }
  return false;
}

/// What one client saw. Latencies go into histograms, so the benchmark's
/// own memory does not grow with the request count and peak_rss_mb is the
/// daemon's.
struct ClientLog {
  NsHistogram ns[kKinds];
  /// Round trip minus the in-process handler time of its kind (traced runs).
  NsHistogram transport_ns;
  std::vector<double> cycle_ms;
  std::uint64_t sent = 0;
  std::uint64_t bad = 0;
  std::size_t metrics_bytes = 0;
};

/// One closed-loop client until `deadline`. `handler_us` holds each kind's
/// in-process handler time in a traced run, else null.
void client_main(const std::string& path, Clock::time_point deadline, double budget_lo_w,
                 double budget_hi_w, const double* handler_us, ClientLog& log) {
  const int fd = connect_to(path, deadline);
  if (fd < 0) {
    log.bad += 1;
    log.sent += 1;
    return;
  }
  Clock::time_point cycle_start = Clock::now();
  for (long k = 0; Clock::now() < deadline; ++k) {
    const Request req = nth_request(k, budget_lo_w, budget_hi_w);
    const auto t0 = Clock::now();
    const std::string response = exchange(fd, req.line, req.kind == kMetrics ? "# EOF\n" : "\n");
    const auto t1 = Clock::now();
    ++log.sent;
    if (!well_formed(req, response)) {
      ++log.bad;
      if (response.empty()) {
        break;  // the connection is gone
      }
      continue;
    }
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    log.ns[req.kind].add(static_cast<std::uint64_t>(ns));
    if (handler_us != nullptr) {
      const int handler = req.kind == kSetBudget ? kSetPolicy : req.kind;
      const double transport = ns - handler_us[handler] * 1e3;
      log.transport_ns.add(static_cast<std::uint64_t>(std::max(0.0, transport)));
    }
    if (req.kind == kMetrics) {
      log.metrics_bytes = response.size();
    }
    if (k % kWriteEvery == kWriteEvery - 1) {
      log.cycle_ms.push_back(seconds_between(cycle_start, t1) * 1e3);
      cycle_start = t1;
    }
  }
  ::close(fd);
}

/// A live daemon plus the engine-thread step observer.
struct LiveDaemon {
  std::unique_ptr<thermctl::daemon::Daemon> daemon;
  std::thread runner;
  core::ExperimentResult result;
  std::string socket_path;
  // Written by the engine thread; read after runner.join().
  std::vector<Clock::time_point> steps;
  double setup_s = 0.0;
  bool up = false;
};

/// Starts a daemon and waits for its first live control round.
void start(LiveDaemon& live, thermctl::daemon::DaemonConfig dc) {
  live.socket_path = dc.socket_path;
  live.steps.reserve(1u << 20);
  const thermctl::Seconds dt = dc.experiment.engine.physics_dt;
  std::vector<Clock::time_point>* steps = &live.steps;
  dc.experiment.on_rig_built = [steps, dt](const core::RigView& rig) {
    rig.engine->add_periodic(dt, [steps](thermctl::SimTime) { steps->push_back(Clock::now()); });
  };
  live.daemon = std::make_unique<thermctl::daemon::Daemon>(std::move(dc));
  const auto t0 = Clock::now();
  live.runner = std::thread{[&live] { live.result = live.daemon->run(); }};
  const int fd = connect_to(live.socket_path, t0 + std::chrono::seconds{30});
  if (fd < 0) {
    return;
  }
  const bool pong = exchange(fd, "ping", "\n") == "OK pong\n";
  while (pong && Clock::now() < t0 + std::chrono::seconds{30}) {
    const std::string status = exchange(fd, "status", "\n");
    if (status.empty()) {
      break;
    }
    if (status_rounds(status) >= 1) {
      live.setup_s = seconds_since(t0);
      live.up = true;
      break;
    }
  }
  ::close(fd);
}

/// Waits up to 5 s until the daemon has applied every command it accepted.
void wait_applied(thermctl::daemon::Daemon& d) {
  for (const auto until = Clock::now() + std::chrono::seconds{5}; Clock::now() < until;) {
    const thermctl::daemon::DaemonStats s = d.stats();
    if (s.commands_applied == s.commands_enqueued) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
}

void stop(LiveDaemon& live) {
  if (live.daemon != nullptr) {
    live.daemon->post_shutdown();
  }
  if (live.runner.joinable()) {
    live.runner.join();
  }
}

/// Steps whose observer reading lies in [from, to]: node-steps per second
/// and per-step latencies.
struct EngineWindow {
  double node_steps_per_s = 0.0;
  std::vector<double> step_us;
};

EngineWindow window(const std::vector<Clock::time_point>& steps, Clock::time_point from,
                    Clock::time_point to, std::size_t nodes) {
  EngineWindow w;
  std::size_t first = steps.size();
  std::size_t last = 0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (steps[k] < from || steps[k] > to) {
      continue;
    }
    first = std::min(first, k);
    last = k;
    if (k > 0 && steps[k - 1] >= from) {
      w.step_us.push_back(seconds_between(steps[k - 1], steps[k]) * 1e6);
    }
  }
  if (first < last) {
    w.node_steps_per_s = static_cast<double>(last - first) * static_cast<double>(nodes) /
                         seconds_between(steps[first], steps[last]);
  }
  return w;
}

double handler_us(thermctl::daemon::Daemon& d, const std::string& line, int reps) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const std::string response = d.handle_request(line);
    us.push_back(seconds_since(t0) * 1e6);
    if (response.empty()) {
      return 0.0;
    }
  }
  return median(us);
}

}  // namespace

Outcome run_daemon_scrape(const Options& options, Report& report) {
  const std::size_t nodes = options.smoke ? 256 : 2048;
  const double client_s = options.smoke ? 0.5 : options.seconds;
  const double dark_s = options.smoke ? 0.3 : kDarkPhaseS;
  // Writes alternate a budget below and above the fleet's draw (~100 W a
  // node under cpu-burn), so set-budget really moves caps.
  const double budget_lo_w = 70.0 * static_cast<double>(nodes);
  const double budget_hi_w = 200.0 * static_cast<double>(nodes);
  std::printf("daemon_scrape: %zu nodes, %d closed-loop clients for %.1f s\n", nodes, kClients,
              client_s);

  Outcome outcome;
  auto never_up = [&outcome] {
    std::fprintf(stderr, "thermbench: thermctld never reported a live control round\n");
    outcome.correct = false;
    outcome.attempted = 1;
    outcome.failed = 1;
    return outcome;
  };
  // Every start but the last runs in a forked child, so the daemon that
  // serves the clients is the first of its process. With four daemons
  // started and stopped before it in the same process, its whole-run peak
  // RSS read up to 81 MB against 52-59 MB, from the earlier daemons' freed
  // memory.
  std::vector<double> setups;
  for (int k = 0; k + 1 < kSetups; ++k) {
    double setup_s = -1.0;
    const bool ok = run_in_child<double>(setup_s, [&options, nodes, k] {
      LiveDaemon probe;
      start(probe, make_config(options, nodes, k));
      stop(probe);
      return probe.up ? probe.setup_s : -1.0;
    });
    if (!ok || setup_s < 0.0) {
      return never_up();
    }
    setups.push_back(setup_s);
  }
  LiveDaemon live;
  start(live, make_config(options, nodes, kSetups - 1));
  if (!live.up) {
    stop(live);
    return never_up();
  }
  setups.push_back(live.setup_s);
  // A live daemon's footprint, before any client connects. The peak over
  // the serving phase moved by up to a fifth between runs on a loaded host
  // (heap growth depends on thread timing), so it is the per-layer
  // daemon.serving_rss_mb.
  const double live_rss_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
  thermctl::daemon::Daemon& d = *live.daemon;

  double handle_us[kKinds] = {};
  if (options.trace) {
    handle_us[kStatus] = handler_us(d, "status", kHandlerReps);
    handle_us[kMetrics] = handler_us(d, "GET /metrics", kHandlerReps);
    handle_us[kPing] = handler_us(d, "ping", kHandlerReps);
    // The configured Pp, so the re-tunes leave the policy where it was.
    handle_us[kSetPolicy] = handler_us(d, "set-policy 50", kWriteHandlerReps);
    wait_applied(d);
  }

  ClientLog logs[kClients];
  // The counts reported are the client phase's, without the set-up's and
  // the in-process handler calls'.
  const thermctl::daemon::DaemonStats before = d.stats();
  const auto phase_start = Clock::now();
  const auto deadline = phase_start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>{client_s});
  {
    std::vector<std::thread> clients;
    for (ClientLog& log : logs) {
      clients.emplace_back(client_main, live.socket_path, deadline, budget_lo_w, budget_hi_w,
                           options.trace ? handle_us : nullptr, std::ref(log));
    }
    for (std::thread& c : clients) {
      c.join();
    }
  }
  const auto phase_end = Clock::now();
  // The dark phase comes after the client phase, so a traced run's client
  // phase starts from the same state as an untraced run's.
  Clock::time_point dark_end = phase_end;
  if (options.trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>{dark_s});
    dark_end = Clock::now();
  }
  // A write that arrived after the last control round is applied by the
  // next one; let that round run so stopping drops no accepted command.
  wait_applied(d);
  stop(live);
  const thermctl::daemon::DaemonStats stats = d.stats();

  // The engine thread has joined, so its step readings are safe to read.
  const EngineWindow loaded = window(live.steps, phase_start, phase_end, nodes);
  NsHistogram all;
  NsHistogram transport;
  std::vector<double> cycles_ms;
  std::size_t metrics_bytes = 0;
  for (const ClientLog& log : logs) {
    outcome.attempted += log.sent;
    outcome.failed += log.bad;
    for (const NsHistogram& h : log.ns) {
      all.merge(h);
    }
    transport.merge(log.transport_ns);
    cycles_ms.insert(cycles_ms.end(), log.cycle_ms.begin(), log.cycle_ms.end());
    metrics_bytes = std::max(metrics_bytes, log.metrics_bytes);
  }

  // No dropped control round, every accepted command applied, and no
  // spurious deadman fire.
  const auto expected_rounds =
      static_cast<std::uint64_t>(live.result.run.exec_time_s / kControlPeriodS);
  const bool rounds_ok = stats.control_rounds + 1 >= expected_rounds;
  const bool commands_ok = stats.commands_applied == stats.commands_enqueued;
  const bool failsafe_ok = stats.failsafe_entries == 0;
  if (!rounds_ok || !commands_ok || !failsafe_ok) {
    std::fprintf(stderr,
                 "thermbench: daemon checks failed (rounds %llu of %llu, commands %llu/%llu, "
                 "failsafes %llu)\n",
                 static_cast<unsigned long long>(stats.control_rounds),
                 static_cast<unsigned long long>(expected_rounds),
                 static_cast<unsigned long long>(stats.commands_applied),
                 static_cast<unsigned long long>(stats.commands_enqueued),
                 static_cast<unsigned long long>(stats.failsafe_entries));
  }
  std::printf("daemon_scrape: %llu requests, %llu malformed, %llu control rounds over %.1f sim-s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(stats.control_rounds),
              live.result.run.exec_time_s);
  outcome.correct = outcome.failed == 0 && rounds_ok && commands_ok && failsafe_ok &&
                    all.count() > 0 && !loaded.step_us.empty();
  if (!outcome.correct) {
    return outcome;
  }

  const double phase_s = seconds_between(phase_start, phase_end);
  report.set("node_steps_per_s", loaded.node_steps_per_s, "1/s");
  report.set("setup_s", median(setups), "s");
  report.annotate("setup_s", "median of " + std::to_string(kSetups) +
                                 " starts, run() to the first live status");
  const Tail steps = tail(loaded.step_us);
  report.set("step_p50_us", median(loaded.step_us), "us");
  report.set("step_p99_us", steps.value, "us");
  report.annotate("step_p99_us", tail_note(steps, "steps"));
  report.set("peak_rss_mb", live_rss_mb, "MB");
  report.annotate("peak_rss_mb", "at the first live control round, before clients");
  report.set("daemon.serving_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
  report.annotate("daemon.serving_rss_mb", "peak over the whole run");
  report.set("sweep_wall_ms", median(cycles_ms), "ms");
  report.annotate("sweep_wall_ms", "median 50-request cycle of one client");
  const Tail reqs = all.tail_us();
  report.set("req_p50_us", all.median_us(), "us");
  report.set("req_p99_us", reqs.value, "us");
  report.annotate("req_p99_us", tail_note(reqs, "requests"));
  report.set("req_per_s", static_cast<double>(all.count()) / phase_s, "1/s");

  report.set("daemon.handle_status_us", handle_us[kStatus], "us");
  report.set("daemon.handle_metrics_us", handle_us[kMetrics], "us");
  report.set("daemon.handle_ping_us", handle_us[kPing], "us");
  report.set("daemon.handle_set_policy_us", handle_us[kSetPolicy], "us");
  if (options.trace) {
    const EngineWindow dark = window(live.steps, phase_end, dark_end, nodes);
    report.set("daemon.transport_us", transport.median_us(), "us");
    report.annotate("daemon.transport_us", "median socket round trip minus handler time");
    report.set("daemon.serving_slowdown", loaded.node_steps_per_s / dark.node_steps_per_s,
               "ratio");
    report.annotate("daemon.serving_slowdown", "loaded / dark node_steps_per_s");
  }
  report.set("daemon.metrics_bytes", static_cast<double>(metrics_bytes), "bytes");
  const std::uint64_t enqueued = stats.commands_enqueued - before.commands_enqueued;
  report.set("daemon.requests_served",
             static_cast<double>(stats.requests_served - before.requests_served), "count");
  report.set("daemon.commands_enqueued", static_cast<double>(enqueued), "count");
  report.set("daemon.commands_applied_ratio",
             static_cast<double>(stats.commands_applied - before.commands_applied) /
                 static_cast<double>(std::max<std::uint64_t>(1, enqueued)),
             "ratio");
  for (int kind = 0; kind < kKinds; ++kind) {
    NsHistogram per_kind;
    for (const ClientLog& log : logs) {
      per_kind.merge(log.ns[kind]);
    }
    const Tail t = per_kind.tail_us();
    std::printf("  %-10s %llu answered, p50 %.3f us, p%.1f %.3f us\n", kKindNames[kind],
                static_cast<unsigned long long>(per_kind.count()), per_kind.median_us(),
                t.percentile, t.value);
  }
  return outcome;
}

}  // namespace thermbench
