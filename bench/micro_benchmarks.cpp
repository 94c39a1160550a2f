// Microbenchmarks (google-benchmark): costs of the hot paths.
//
// The paper's controller runs in-band on the managed node at 4 Hz, so its
// own overhead must be negligible next to the workload. These benchmarks
// quantify that claim for every layer: window update, array fill, selector
// arithmetic, the full controller tick including the sysfs + i2c round
// trips, a ControlBank family tick per node, a decision-log append, one RC
// physics step, each device/OS sweep phase of a fleet step, a whole-node
// engine step, and the set-up settle of a whole cluster and of its unified
// controller bank.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/control_array.hpp"
#include "core/control_bank.hpp"
#include "core/decision_log.hpp"
#include "core/fan_policy.hpp"
#include "core/mode_selector.hpp"
#include "core/two_level_window.hpp"
#include "thermal/package_model.hpp"

namespace {

using namespace thermctl;

void BM_WindowAddSample(benchmark::State& state) {
  core::TwoLevelWindow window;
  double t = 45.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(window.add_sample(Celsius{t}));
  }
}
BENCHMARK(BM_WindowAddSample);

void BM_ControlArrayFill(benchmark::State& state) {
  // An array is a 16-byte view of its owner's modes and Eq. (1) is index
  // arithmetic, so a fill costs this: build an array over a family's 100
  // duty modes, re-tune it (n_p from Pp), then read every one of its
  // N = 100 cells.
  std::vector<double> duties;
  for (int d = 1; d <= 100; ++d) {
    duties.push_back(static_cast<double>(d));
  }
  int pp = 1;
  for (auto _ : state) {
    core::ThermalControlArray arr{duties, 100, core::PolicyParam{pp}};
    arr.set_policy(core::PolicyParam{101 - pp});
    double sum = 0.0;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      sum += arr.mode(i);
    }
    benchmark::DoNotOptimize(sum);
    pp = pp % 100 + 1;
  }
}
BENCHMARK(BM_ControlArrayFill);

void BM_ModeSelectorDecide(benchmark::State& state) {
  core::ModeSelector selector{core::ModeSelectorConfig{}, 100};
  core::WindowRound round;
  round.level1_delta = CelsiusDelta{0.3};
  round.level2_delta = CelsiusDelta{1.2};
  round.level2_valid = true;
  std::size_t index = 40;
  for (auto _ : state) {
    const auto d = selector.decide(index, round);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ModeSelectorDecide);

void BM_PackagePhysicsStep(benchmark::State& state) {
  // One package: a view onto a group of one.
  thermal::PackageColumns cols{1, thermal::PackageParams{}};
  thermal::PackageModel pkg{cols, 0};
  pkg.set_cpu_power(Watts{60.0});
  pkg.set_airflow(Cfm{16.0});
  for (auto _ : state) {
    pkg.step(Seconds{0.05});
  }
  benchmark::DoNotOptimize(pkg.die_temperature());
}
BENCHMARK(BM_PackagePhysicsStep);

void BM_NodeFullStep(benchmark::State& state) {
  cluster::NodeParams params;
  cluster::Cluster fleet{1, params};
  cluster::Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.8});
  for (auto _ : state) {
    fleet.step(Seconds{0.05});
  }
  benchmark::DoNotOptimize(node.die_temperature());
}
BENCHMARK(BM_NodeFullStep);

void BM_ControllerTickThroughSysfs(benchmark::State& state) {
  // Full in-band control tick: hwmon read (vfs + string parse) + window +
  // selector + pwm write (vfs -> driver -> i2c -> chip).
  cluster::NodeParams params;
  cluster::Cluster fleet{1, params};
  cluster::Node& node = fleet.node(0);
  core::FanControlConfig cfg;
  cfg.pp = core::PolicyParam{50};
  core::DynamicFanController fan{node.hwmon(), cfg};
  node.set_utilization(Utilization{1.0});
  SimTime now;
  for (auto _ : state) {
    fleet.step(Seconds{0.05});
    node.sample_sensor();
    now.advance_us(250000);
    fan.on_sample(now);
  }
}
BENCHMARK(BM_ControllerTickThroughSysfs);

void BM_ControlBankEmplaceUnified(benchmark::State& state) {
  // Controller set-up at fleet scale: a unified ControlBank emplaced over an
  // already-built cluster, as a fleet rig does it. The family's constants are
  // built with the first controller and every later one points at them. The
  // cluster is built once and the bank's teardown is not timed; items/sec is
  // controllers emplaced per second.
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  cluster::Cluster rack{nodes, cluster::NodeParams{}};
  core::UnifiedConfig cfg;
  cfg.pp = core::PolicyParam{50};
  for (auto _ : state) {
    auto bank =
        std::make_unique<core::ControlBank>(nodes, rack.fleet()->sensor().last_degc.data());
    for (std::size_t i = 0; i < nodes; ++i) {
      bank->emplace_unified(i, rack.node(i).hwmon(), rack.node(i).cpufreq(), cfg);
    }
    state.PauseTiming();
    bank.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ControlBankEmplaceUnified)->Arg(2048)->Arg(16384)->Unit(benchmark::kMillisecond);

// One family tick of a fleet's ControlBank, as the engine's control periodic
// runs it. Between ticks (untimed) every node's sensor toggles between two
// adjacent codes and, with `moving:1`, also follows its own slow wave, so
// selectors move and some ticks retarget through sysfs, as in a running
// fleet. `moving:0` prices the controllers' own state and arithmetic: rounds
// close and decide, but nothing is written. ns_per_node_tick is the timed
// tick divided by the nodes it ticked.
enum class BankFamily { kUnified, kFans, kTdvfs };

void control_bank_tick(benchmark::State& state, BankFamily family) {
  using Clock = std::chrono::steady_clock;
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const double wave = state.range(1) != 0 ? 6.0 : 0.0;
  cluster::Cluster rack{nodes, cluster::NodeParams{}};
  double* sensors = rack.fleet()->sensor_last_data();
  core::ControlBank bank{nodes, sensors};
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster::Node& node = rack.node(i);
    switch (family) {
      case BankFamily::kUnified:
        bank.emplace_unified(i, node.hwmon(), node.cpufreq(), core::UnifiedConfig{});
        break;
      case BankFamily::kFans:
        bank.emplace_fan(i, node.hwmon(), core::FanControlConfig{});
        break;
      case BankFamily::kTdvfs:
        bank.emplace_tdvfs(i, node.hwmon(), node.cpufreq(), core::TdvfsConfig{});
        break;
    }
  }
  SimTime now;
  double total_ns = 0.0;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const double t = 0.25 * static_cast<double>(tick++);
    for (std::size_t i = 0; i < nodes; ++i) {
      const double phase = static_cast<double>(i % 97);
      sensors[i] = 48.0 + wave * std::sin(t / 20.0 + phase) + 0.25 * static_cast<double>(tick % 2);
    }
    now.advance_us(250000);
    const auto start = Clock::now();
    switch (family) {
      case BankFamily::kUnified:
        bank.tick_unified(now);
        break;
      case BankFamily::kFans:
        bank.tick_fans(now);
        break;
      case BankFamily::kTdvfs:
        bank.tick_tdvfs(now);
        break;
    }
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    state.SetIterationTime(elapsed.count());
    total_ns += elapsed.count() * 1e9;
  }
  const double node_ticks = static_cast<double>(state.iterations()) * static_cast<double>(nodes);
  std::uint64_t moves = 0;  // fan retargets plus tDVFS transitions
  for (std::size_t i = 0; i < nodes; ++i) {
    switch (family) {
      case BankFamily::kUnified:
        moves += bank.unified(i).fan().retarget_count() + bank.unified(i).dvfs().events().size();
        break;
      case BankFamily::kFans:
        moves += bank.fan(i).retarget_count();
        break;
      case BankFamily::kTdvfs:
        moves += bank.tdvfs(i).events().size();
        break;
    }
  }
  state.counters["ns_per_node_tick"] = total_ns / node_ticks;
  state.counters["moves_per_node_tick"] = static_cast<double>(moves) / node_ticks;
}

void BM_ControlBankTickUnified(benchmark::State& state) {
  control_bank_tick(state, BankFamily::kUnified);
}
BENCHMARK(BM_ControlBankTickUnified)
    ->ArgNames({"nodes", "moving"})
    ->ArgsProduct({{2048, 16384}, {0, 1}})
    ->UseManualTime();

void BM_ControlBankTickFans(benchmark::State& state) {
  control_bank_tick(state, BankFamily::kFans);
}
BENCHMARK(BM_ControlBankTickFans)
    ->ArgNames({"nodes", "moving"})
    ->ArgsProduct({{2048, 16384}, {0, 1}})
    ->UseManualTime();

void BM_ControlBankTickTdvfs(benchmark::State& state) {
  control_bank_tick(state, BankFamily::kTdvfs);
}
BENCHMARK(BM_ControlBankTickTdvfs)
    ->ArgNames({"nodes", "moving"})
    ->ArgsProduct({{2048, 16384}, {0, 1}})
    ->UseManualTime();

// Appends to one family's DecisionLog, 4 096 per timed iteration, over
// 4 096 node chains in turn. `per_instant:4096` is a bank tick in which every
// node decides (one time run per 4 096 records); `per_instant:1` gives every
// record its own instant, so each opens a run. The log is rebuilt, untimed,
// every 2^20 records; first-touch page faults of its chunks stay timed.
void BM_DecisionLogAppend(benchmark::State& state) {
  constexpr std::size_t kNodes = 4096;
  constexpr std::size_t kRebuildAt = std::size_t{1} << 20;
  const std::size_t per_instant = static_cast<std::size_t>(state.range(0));
  auto log = std::make_unique<core::DecisionLog>();
  std::vector<core::DecisionChain> chains(kNodes);
  SimTime now;
  for (auto _ : state) {
    if (log->size() >= kRebuildAt) {
      state.PauseTiming();
      log = std::make_unique<core::DecisionLog>();
      chains.assign(kNodes, core::DecisionChain{});
      state.ResumeTiming();
    }
    for (std::size_t k = 0; k < kNodes; ++k) {
      if (k % per_instant == 0) {
        now.advance_us(250000);
      }
      log->append(chains[k], now, k % 100, (k + 1) % 100, 0);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kNodes));
}
BENCHMARK(BM_DecisionLogAppend)->ArgName("per_instant")->Arg(4096)->Arg(1);

void BM_ClusterBuild(benchmark::State& state) {
  // Rig set-up at fleet scale: a Cluster of N nodes built from scratch, each
  // node's device graph, sysfs mounts, BMC and IPMI attach included. The
  // teardown is not timed; ns_per_node is the build cost of one node.
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const cluster::NodeParams params;
  double total_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto rack = std::make_unique<cluster::Cluster>(nodes, params);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    total_ns += elapsed.count() * 1e9;
    benchmark::DoNotOptimize(rack->node(nodes - 1).die_temperature());
  }
  state.counters["ns_per_node"] =
      total_ns / (static_cast<double>(state.iterations()) * static_cast<double>(nodes));
}
BENCHMARK(BM_ClusterBuild)
    ->ArgName("nodes")
    ->Arg(2048)
    ->Arg(16384)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_PackageStepFleet(benchmark::State& state) {
  // The package solver at fleet scale: N packages advanced by one
  // restrict-qualified, compiler-vectorized pass over the rows per substep.
  // items/sec is package-steps per second.
  const std::size_t instances = static_cast<std::size_t>(state.range(0));
  thermal::PackageColumns cols{instances, thermal::PackageParams{}};
  for (auto _ : state) {
    cols.step_range(Seconds{0.05}, 0, instances);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_PackageStepFleet)->Arg(1)->Arg(64)->Arg(4096)->Arg(16384)->Arg(100000);

// Per-phase cost of one fleet step. Every iteration runs the whole step on a
// settled fleet under mixed load, in the order Cluster::step and the engine
// run it (pre-thermal sweep, RC solve, post-thermal sweep, sensor
// sampling), and the manual timer reports only `phase`. items/sec is
// node-steps of that phase per second.
enum class SweepPhase { kPre, kPost, kSample };

void fleet_sweep_phase(benchmark::State& state, SweepPhase phase) {
  using Clock = std::chrono::steady_clock;
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  cluster::Cluster rack{nodes, cluster::NodeParams{}};
  for (std::size_t i = 0; i < nodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.settle_all();
  for (std::size_t i = 0; i < nodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.3 + 0.1 * static_cast<double>(i % 8)});
  }
  cluster::FleetSweep& sweep = *rack.sweep();
  const Seconds dt{0.05};
  SimTime now;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    sweep.pre_range(0, nodes, dt);
    const auto t1 = Clock::now();
    rack.fleet()->batch().step_range(dt, 0, nodes);
    const auto t2 = Clock::now();
    sweep.post_range(0, nodes, dt);
    const auto t3 = Clock::now();
    now.advance_us(50000);
    benchmark::DoNotOptimize(sweep.sample_range(0, nodes, now));
    benchmark::ClobberMemory();
    const auto t4 = Clock::now();
    const Clock::duration timed =
        phase == SweepPhase::kPre ? t1 - t0 : phase == SweepPhase::kPost ? t3 - t2 : t4 - t3;
    state.SetIterationTime(std::chrono::duration<double>(timed).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}

void BM_FleetSweepPre(benchmark::State& state) { fleet_sweep_phase(state, SweepPhase::kPre); }
BENCHMARK(BM_FleetSweepPre)->Arg(2048)->Arg(16384)->UseManualTime();

void BM_FleetSweepPost(benchmark::State& state) { fleet_sweep_phase(state, SweepPhase::kPost); }
BENCHMARK(BM_FleetSweepPost)->Arg(2048)->Arg(16384)->UseManualTime();

void BM_FleetSweepSample(benchmark::State& state) {
  fleet_sweep_phase(state, SweepPhase::kSample);
}
BENCHMARK(BM_FleetSweepSample)->Arg(2048)->Arg(16384)->UseManualTime();

void BM_ClusterSettleAll(benchmark::State& state) {
  // Set-up priming, as run_experiment does it: a fresh (ambient) cluster
  // settled at idle load, one batched RC march per settle pass. Identical
  // packages march once per run of them, so the homogeneous fleet
  // (distinct_inlets:0) is the common case; distinct_inlets:1 gives every
  // node its own inlet temperature, so no two columns match and every one
  // marches (the worst case). Building and tearing down the cluster is not
  // timed; items/sec is nodes settled per second.
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const bool distinct_inlets = state.range(1) != 0;
  const cluster::NodeParams params;
  for (auto _ : state) {
    state.PauseTiming();
    auto rack = std::make_unique<cluster::Cluster>(nodes, params);
    for (std::size_t i = 0; i < nodes; ++i) {
      rack->node(i).set_utilization(Utilization{0.02});
      if (distinct_inlets) {
        rack->set_inlet_temperature(i, Celsius{22.0 + 0.001 * static_cast<double>(i)});
      }
    }
    state.ResumeTiming();
    rack->settle_all();
    state.PauseTiming();
    benchmark::DoNotOptimize(rack->node(0).die_temperature());
    rack.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ClusterSettleAll)
    ->ArgNames({"nodes", "distinct_inlets"})
    ->Args({4, 0})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedSecondFourNodes(benchmark::State& state) {
  // Cost of simulating one wall-clock second of a 4-node cluster at the
  // default 50 ms physics step (20 steps/node).
  cluster::NodeParams params;
  cluster::Cluster rack{4, params};
  for (std::size_t i = 0; i < 4; ++i) {
    rack.node(i).set_utilization(Utilization{0.75});
  }
  for (auto _ : state) {
    for (int step = 0; step < 20; ++step) {
      rack.step(Seconds{0.05});
    }
  }
}
BENCHMARK(BM_SimulatedSecondFourNodes);

}  // namespace
