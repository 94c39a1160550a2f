// Daemon lifecycle tests: socket protocol, hot policy reload under
// concurrent clients, watchdog stall → failsafe → recovery, and clean
// shutdown mid-spill.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.hpp"
#include "obs/trace_io.hpp"

namespace thermctl::daemon {
namespace {

using namespace std::chrono_literals;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/thermctld_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A long-lived rig the tests end via `shutdown`: small fleet, idle load,
/// horizon far beyond what any test lets elapse.
core::ExperimentConfig service_config() {
  core::ExperimentConfig cfg = core::paper_platform();
  cfg.name = "daemon-test";
  cfg.nodes = 4;
  cfg.workload = core::WorkloadKind::kIdle;
  cfg.engine.horizon = Seconds{100000.0};
  cfg.telemetry.metrics = true;
  cfg.telemetry.rollup.enabled = true;
  cfg.telemetry.rollup.interval_s = 1.0;
  return cfg;
}

int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // The server binds before run() starts, so a short retry loop is enough.
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(10ms);
  }
  ADD_FAILURE() << "could not connect to " << path;
  ::close(fd);
  return -1;
}

/// Sends one request line and reads until `terminator` (single-line replies
/// end in '\n'; metrics bodies end in "# EOF\n").
std::string request(int fd, const std::string& line, const std::string& terminator = "\n") {
  const std::string out = line + "\n";
  EXPECT_EQ(::write(fd, out.data(), out.size()), static_cast<ssize_t>(out.size()));
  std::string response;
  char chunk[4096];
  while (response.size() < terminator.size() ||
         response.compare(response.size() - terminator.size(), terminator.size(),
                          terminator) != 0) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      ADD_FAILURE() << "connection dropped mid-response to: " << line;
      break;
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(DaemonProtocol, HandlesRequestsAndRejectsBadInput) {
  DaemonConfig dc;
  dc.experiment = service_config();
  Daemon d{dc};  // never run: handle_request works pre-run too
  EXPECT_EQ(d.handle_request("ping"), "OK pong");
  EXPECT_EQ(d.handle_request("set-policy 25"), "OK pp=25");
  EXPECT_EQ(d.handle_request("set-policy 0").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("set-policy 101").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("set-policy x").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("set-budget 450"), "OK budget_w=" + std::to_string(450.0));
  EXPECT_EQ(d.handle_request("set-budget -3").rfind("ERR", 0), 0u);
  EXPECT_EQ(d.handle_request("frobnicate").rfind("ERR unknown-command", 0), 0u);
  EXPECT_EQ(d.handle_request("metrics"), "# EOF\n");  // no exposition yet
  EXPECT_EQ(d.handle_request("status").rfind("OK ", 0), 0u);
  EXPECT_EQ(d.stats().commands_enqueued, 2u);  // the two accepted mutations
}

TEST(DaemonLifecycle, ConcurrentClientsDuringHotReload) {
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};

  // Several clients hammer reads while the policy is re-tuned hot.
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_client(dc.socket_path);
      ASSERT_GE(fd, 0);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (i % 3 == 2) {
          const std::string body = request(fd, "metrics", "# EOF\n");
          if (body.size() >= 6 && body.substr(body.size() - 6) == "# EOF\n") {
            ok_responses.fetch_add(1);
          }
        } else {
          const std::string line = request(fd, i % 3 == 0 ? "status" : "ping");
          if (line.rfind("OK", 0) == 0) {
            ok_responses.fetch_add(1);
          }
        }
      }
      if (c == 0) {
        EXPECT_EQ(request(fd, "set-policy 25"), "OK pp=25\n");
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // The re-tune lands within one control round: poll status until pp=25.
  const int fd = connect_client(dc.socket_path);
  ASSERT_GE(fd, 0);
  bool applied = false;
  for (int attempt = 0; attempt < 300 && !applied; ++attempt) {
    applied = request(fd, "status").find(" pp=25 ") != std::string::npos;
    if (!applied) {
      std::this_thread::sleep_for(10ms);
    }
  }
  EXPECT_TRUE(applied) << "set-policy 25 not visible in status";
  EXPECT_EQ(request(fd, "shutdown"), "OK shutting-down\n");
  ::close(fd);
  runner.join();

  EXPECT_EQ(ok_responses.load(), kClients * kRequestsPerClient);
  const DaemonStats stats = d.stats();
  EXPECT_EQ(stats.commands_applied, stats.commands_enqueued);
  EXPECT_EQ(stats.failsafe_entries, 0u);
  EXPECT_GE(stats.clients_accepted, static_cast<std::uint64_t>(kClients));
  // Zero dropped rounds: one control round per period of elapsed sim time.
  const auto expected_rounds = static_cast<std::uint64_t>(result.run.exec_time_s /
                                                          dc.control_period_s);
  EXPECT_GE(stats.control_rounds + 1, expected_rounds);
}

TEST(DaemonLifecycle, OverlongRequestLineIsRejectedWithoutStallingOthers) {
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};

  const int good = connect_client(dc.socket_path);
  const int hostile = connect_client(dc.socket_path);
  ASSERT_GE(good, 0);
  ASSERT_GE(hostile, 0);
  // A reply that never comes must fail the test, not hang it.
  const timeval timeout{1, 0};
  ASSERT_EQ(::setsockopt(hostile, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);

  // 64 KiB with no newline: far past the line cap.
  const std::string flood(64 * 1024, 'x');
  ASSERT_GT(::send(hostile, flood.data(), flood.size(), MSG_NOSIGNAL), 0);
  EXPECT_EQ(request(good, "ping"), "OK pong\n");

  std::string reply;
  char chunk[256];
  ssize_t n = 0;
  while (reply.find('\n') == std::string::npos &&
         (n = ::read(hostile, chunk, sizeof chunk)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(reply, "ERR line-too-long\n");
  // The server hung up on the flooding client...
  const ssize_t after = ::read(hostile, chunk, sizeof chunk);
  EXPECT_TRUE(after == 0 || (after < 0 && errno == ECONNRESET)) << "read returned " << after;
  // ...and kept serving the well-behaved one.
  EXPECT_EQ(request(good, "ping"), "OK pong\n");
  EXPECT_EQ(request(good, "shutdown"), "OK shutting-down\n");
  ::close(hostile);
  ::close(good);
  runner.join();
}

TEST(DaemonLifecycle, RequestLineCapIsInclusive) {
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};

  const int at_cap = connect_client(dc.socket_path);
  const int over_cap = connect_client(dc.socket_path);
  ASSERT_GE(at_cap, 0);
  ASSERT_GE(over_cap, 0);
  const timeval timeout{1, 0};
  ASSERT_EQ(::setsockopt(at_cap, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  ASSERT_EQ(::setsockopt(over_cap, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);

  // Exactly kMaxRequestLine bytes is still a request: it is parsed (and, being
  // junk, answered as an unknown command) and the connection stays open.
  const std::string longest(Daemon::kMaxRequestLine, 'x');
  EXPECT_EQ(request(at_cap, longest).rfind("ERR unknown-command", 0), 0U);
  EXPECT_EQ(request(at_cap, "ping"), "OK pong\n");

  // One byte more is rejected, even though the newline follows right after.
  EXPECT_EQ(request(over_cap, longest + "x"), "ERR line-too-long\n");

  EXPECT_EQ(request(at_cap, "shutdown"), "OK shutting-down\n");
  ::close(over_cap);
  ::close(at_cap);
  runner.join();
}

TEST(DaemonLifecycle, ShutdownDuringRigBuildStopsTheRun) {
  // The server accepts before run_experiment has built the rig, so a
  // shutdown can land before there is an engine to stop. It must still end
  // the run promptly, not at the horizon. A homogeneous fleet builds in
  // milliseconds, so the shutdown may also land just after the build; the
  // observer holds the first step until the shutdown is acknowledged, so
  // wherever it landed the run must stop at its first step.
  DaemonConfig dc;
  dc.socket_path = unique_socket_path();
  dc.experiment = service_config();
  dc.experiment.nodes = 1024;
  dc.experiment.engine.horizon = Seconds{600.0};
  std::promise<void> acknowledged;
  dc.experiment.on_rig_built = [ack = acknowledged.get_future().share()](const core::RigView&) {
    ack.wait_for(10s);
  };
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  const int fd = connect_client(dc.socket_path);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(request(fd, "shutdown"), "OK shutting-down\n");
  acknowledged.set_value();
  ::close(fd);
  runner.join();
  EXPECT_LT(result.run.exec_time_s, 1.0);
}

TEST(DaemonLifecycle, WatchdogStallFailsafeAndRecovery) {
  DaemonConfig dc;
  dc.experiment = service_config();
  dc.watchdog_timeout_s = 0.2;
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::this_thread::sleep_for(100ms);

  // Wedge one control round for 3x the deadman timeout: the watchdog must
  // fail safe mid-stall, and the next live round must recover.
  d.post_stall(600.0);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (d.stats().failsafe_recoveries == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  d.post_shutdown();
  runner.join();

  const DaemonStats stats = d.stats();
  EXPECT_GE(stats.failsafe_entries, 1u);
  EXPECT_GE(stats.failsafe_recoveries, 1u);
  EXPECT_FALSE(d.in_failsafe());
  EXPECT_EQ(stats.commands_applied, stats.commands_enqueued);
}

TEST(DaemonLifecycle, PauseFreezesSimTimeAndResumeContinues) {
  DaemonConfig dc;
  dc.experiment = service_config();
  dc.watchdog_timeout_s = 0.2;  // must NOT fire while paused
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::this_thread::sleep_for(50ms);

  d.post_pause();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!d.paused() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(d.paused());
  // Paused across 3x the deadman timeout: an operator freeze is not a stall.
  std::this_thread::sleep_for(600ms);
  EXPECT_FALSE(d.in_failsafe());
  EXPECT_EQ(d.stats().failsafe_entries, 0u);

  d.post_resume();
  d.post_shutdown();
  runner.join();
  EXPECT_EQ(d.stats().failsafe_entries, 0u);
}

TEST(DaemonLifecycle, ShutdownMidDrainLeavesReadableSpill) {
  const std::string spill_path = "/tmp/thermctld_spill_" + std::to_string(::getpid()) +
                                 ".thermtrace";
  DaemonConfig dc;
  dc.experiment = service_config();
  dc.experiment.dvfs = core::DvfsPolicyKind::kTdvfs;  // trace traffic
  dc.experiment.telemetry.trace = true;
  dc.experiment.telemetry.spill = true;
  dc.experiment.telemetry.spill_path = spill_path;
  dc.experiment.telemetry.spill_cfg.period_s = 0.5;
  dc.experiment.telemetry.spill_cfg.max_events_per_drain = 4;  // force deferrals
  Daemon d{dc};

  core::ExperimentResult result;
  std::thread runner{[&] { result = d.run(); }};
  std::this_thread::sleep_for(300ms);
  d.post_shutdown();
  runner.join();

  // Stopped well short of the horizon, with the spill finalized exactly as
  // on a natural exit.
  EXPECT_LT(result.run.exec_time_s, dc.experiment.engine.horizon.value());
  ASSERT_TRUE(result.spill.has_value());
  const obs::TraceFile file = obs::read_trace_file(spill_path);
  EXPECT_EQ(file.node_count, 4u);
  EXPECT_GT(file.events.size(), 0u);
  for (std::size_t i = 1; i < file.events.size(); ++i) {
    const obs::TraceEvent& prev = file.events[i - 1];
    const obs::TraceEvent& cur = file.events[i];
    EXPECT_TRUE(prev.t_s < cur.t_s || (prev.t_s == cur.t_s && prev.node <= cur.node))
        << "spill unsorted at " << i;
  }
  std::remove(spill_path.c_str());
}

TEST(Thermctld, CpuBurnRunsExactlyTheHorizon) {
  // run_experiment stretches a cpu-burn horizon to twice the burn, so a
  // throttled burn can finish. thermctld's burn lasts its whole --horizon,
  // and the run must still end there. By 120 sim-s tDVFS has slowed the
  // burn enough that it would otherwise run on past the horizon.
  const std::string command = std::string{THERMCTLD_BINARY} + " --socket " +
                              unique_socket_path() + " --nodes 4 --horizon 120 2>&1";
  FILE* out = ::popen(command.c_str(), "r");
  ASSERT_NE(out, nullptr);
  std::string log;
  char chunk[4096];
  while (const std::size_t n = std::fread(chunk, 1, sizeof chunk, out)) {
    log.append(chunk, n);
  }
  EXPECT_EQ(::pclose(out), 0) << log;
  EXPECT_NE(log.find("thermctld: done t=120.0s "), std::string::npos) << log;
}

}  // namespace
}  // namespace thermctl::daemon
