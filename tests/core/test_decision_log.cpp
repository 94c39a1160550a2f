// The per-family decision log: chunked storage, per-node chains, the time
// runs, bit-exact decoding, and how the fan and threshold techniques write to
// it.
#include "core/decision_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "controller_rig.hpp"
#include "core/control_bank.hpp"
#include "core/fan_policy.hpp"
#include "core/idle_injection.hpp"
#include "core/tdvfs.hpp"
#include "obs/trace.hpp"
#include "sysfs/powerclamp.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// The raw record fields, for tests of the log itself.
struct RawEvent {
  std::int64_t us = 0;
  double from = 0.0;
  double to = 0.0;
  std::uint8_t flags = 0;

  static RawEvent decode(SimTime at, double from, double to, std::uint8_t flags) {
    return {at.us(), from, to, flags};
  }
};

/// Mode k is the double k, so a decoded mode names its index.
std::vector<double> index_modes() {
  std::vector<double> modes(DecisionLog::kMaxModes);
  for (std::size_t k = 0; k < modes.size(); ++k) {
    modes[k] = static_cast<double>(k);
  }
  return modes;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every cell of `array` at every Pp holds exactly the mode its index names.
void expect_cells_named_by_index(ThermalControlArray array) {
  for (int pp = PolicyParam::kMin; pp <= PolicyParam::kMax; ++pp) {
    array.set_policy(PolicyParam{pp});
    for (std::size_t i = 0; i < array.size(); ++i) {
      ASSERT_EQ(bits(array.available_modes()[array.mode_index(i)]), bits(array.mode(i)))
          << "Pp " << pp << " cell " << i;
    }
  }
}

TEST(DecisionLog, AllocatesNothingBeforeTheFirstAppend) {
  DecisionLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.memory_bytes(), 0u);
  DecisionChain chain;
  log.append(chain, SimTime::from_us(1), 0, 1, 0);
  // One 64-record chunk, its slot in the chunk table and one time run.
  EXPECT_EQ(log.memory_bytes(), 64 * sizeof(DecisionRecord) +
                                    sizeof(std::unique_ptr<DecisionRecord[]>) +
                                    sizeof(DecisionLog::TimeRun));
}

TEST(DecisionLog, ChunkGrowthLeavesEarlierRecordsInPlace) {
  DecisionLog log;
  DecisionChain chain;
  std::vector<const DecisionRecord*> addresses;
  // 64 + 128 + 256 records fill three chunks; one more opens a fourth.
  constexpr std::uint32_t kRecords = 64 + 128 + 256 + 1;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    log.append(chain, SimTime::from_us(1000 + i), i % 7, i % 11, 0);
    for (std::uint32_t k = 0; k <= i; ++k) {
      if (k < addresses.size()) {
        ASSERT_EQ(&log[k], addresses[k]) << "record " << k << " moved at append " << i;
      }
    }
    addresses.push_back(&log[i]);
  }
  ASSERT_EQ(log.size(), kRecords);
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(log.when(i).us(), 1000 + static_cast<std::int64_t>(i));
    EXPECT_EQ(log[i].from, i % 7);
    EXPECT_EQ(log[i].to, i % 11);
  }
  // Every record has its own time here, so every one opens a run. Doubling
  // chunks and run table: at most twice what was appended, plus the chunk
  // table.
  ASSERT_EQ(log.time_runs(), kRecords);
  EXPECT_LE(log.memory_bytes(),
            2 * kRecords * (sizeof(DecisionRecord) + sizeof(DecisionLog::TimeRun)) +
                4 * sizeof(std::unique_ptr<DecisionRecord[]>));
}

TEST(DecisionLog, RecordsOfOneInstantShareOneTimeRun) {
  DecisionLog log;
  std::vector<DecisionChain> chains(300);
  // Three instants, each more records than a chunk holds, then a fourth
  // with one record.
  for (std::int64_t t : {5, 9, 12}) {
    for (DecisionChain& chain : chains) {
      log.append(chain, SimTime::from_us(t), 0, 1, 0);
    }
  }
  log.append(chains[7], SimTime::from_us(40), 1, 0, 0);
  EXPECT_EQ(log.time_runs(), 4u);
  for (std::uint32_t i = 0; i < log.size(); ++i) {
    const std::int64_t expected = i < 300 ? 5 : (i < 600 ? 9 : (i < 900 ? 12 : 40));
    ASSERT_EQ(log.when(i).us(), expected) << "record " << i;
  }
}

TEST(DecisionLog, OneBankTickAddsOneTimeRun) {
  // Every node ramps alike, so whole ticks of the bank retarget many fans.
  constexpr std::size_t kNodes = 16;
  testing::ScriptedSensors sensors{kNodes};
  std::vector<std::unique_ptr<ControllerRig>> rigs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    rigs.push_back(std::make_unique<ControllerRig>(sensors, i));
  }
  ControlBank bank{kNodes, sensors.last_degc.data()};
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_fan(i, *rigs[i]->hwmon, FanControlConfig{});
  }
  const DecisionLog& log = bank.fan(0).family().log;
  SimTime now;
  std::size_t ticks_deciding = 0;
  std::size_t most_in_one_tick = 0;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      rigs[i]->truth = 40.0 + 0.2 * step;
      rigs[i]->sensor.sample();
    }
    const std::size_t records = log.size();
    const std::size_t runs = log.time_runs();
    bank.tick_fans(now);
    const std::size_t decided = log.size() - records;
    ASSERT_EQ(log.time_runs() - runs, decided > 0 ? 1u : 0u) << "step " << step;
    ticks_deciding += decided > 0 ? 1 : 0;
    most_in_one_tick = std::max(most_in_one_tick, decided);
  }
  EXPECT_EQ(log.time_runs(), ticks_deciding);
  EXPECT_EQ(most_in_one_tick, kNodes);
}

TEST(DecisionLog, TimesPastTwoToTheThirtyTwoMicrosecondsDecodeBitForBit) {
  const std::vector<double> modes = index_modes();
  DecisionLog log;
  DecisionChain chain;
  // 2^32 µs is about 71.6 min; a daemon runs for days.
  const std::vector<std::int64_t> times{(std::int64_t{1} << 32) - 1, std::int64_t{1} << 32,
                                        (std::int64_t{1} << 32) + 250'000,
                                        std::int64_t{7} * 24 * 3600 * 1'000'000 + 1};
  for (const std::int64_t us : times) {
    log.append(chain, SimTime::from_us(us), 0, 1, 0);
  }
  std::size_t k = 0;
  for (const FanEvent& e : DecisionView<FanEvent>{log, modes, chain}) {
    EXPECT_EQ(log.when(static_cast<std::uint32_t>(k)).us(), times[k]);
    EXPECT_EQ(bits(e.time_s), bits(SimTime::from_us(times[k]).seconds())) << times[k] << " us";
    ++k;
  }
  EXPECT_EQ(k, times.size());
}

TEST(DecisionLogDeath, AppendEarlierThanTheLastAborts) {
  DecisionLog log;
  DecisionChain a;
  DecisionChain b;
  log.append(a, SimTime::from_us(10), 0, 1, 0);
  log.append(b, SimTime::from_us(10), 0, 1, 0);
  EXPECT_DEATH(log.append(a, SimTime::from_us(9), 1, 2, 0), "earlier");
}

TEST(DecisionLog, InterleavedNodesReadBackInTheirOwnOrder) {
  const std::vector<double> modes = index_modes();
  DecisionLog log;
  std::vector<DecisionChain> chains(3);
  std::vector<std::vector<std::int64_t>> expected(3);
  // An irregular interleaving across several chunks: node (i*i) % 3 (0 or
  // 1) decides at tick i, and node 2 on every fifth tick.
  for (std::int64_t i = 0; i < 500; ++i) {
    const std::size_t node = static_cast<std::size_t>((i * i) % 3);
    log.append(chains[node], SimTime::from_us(i), static_cast<std::size_t>(i % 200),
               static_cast<std::size_t>((i + 1) % 200), 0);
    expected[node].push_back(i);
    if (i % 5 == 0) {
      log.append(chains[2], SimTime::from_us(i), 3, 4, DecisionLog::kRestore);
      expected[2].push_back(i);
    }
  }
  for (std::size_t node = 0; node < 3; ++node) {
    const DecisionView<RawEvent> view{log, modes, chains[node]};
    ASSERT_EQ(view.size(), expected[node].size());
    std::vector<std::int64_t> got;
    for (const RawEvent& e : view) {
      got.push_back(e.us);
    }
    EXPECT_EQ(got, expected[node]) << "node " << node;
    EXPECT_EQ(view.front().us, expected[node].front());
    EXPECT_EQ(view.back().us, expected[node].back());
  }
}

TEST(DecisionLog, CursorResumesAfterTheLastRecordRead) {
  const std::vector<double> modes = index_modes();
  DecisionLog log;
  DecisionChain a;
  DecisionChain b;
  const auto view_a = [&] { return DecisionView<RawEvent>{log, modes, a}; };
  DecisionCursor seen;
  EXPECT_TRUE(view_a().after(seen).empty());

  log.append(a, SimTime::from_us(1), 0, 1, 0);
  log.append(b, SimTime::from_us(2), 0, 1, 0);
  log.append(a, SimTime::from_us(3), 1, 2, 0);
  std::vector<std::int64_t> got;
  for (const RawEvent& e : view_a().after(seen)) {
    got.push_back(e.us);
  }
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 3}));
  seen = view_a().cursor();
  EXPECT_TRUE(view_a().after(seen).empty());

  log.append(b, SimTime::from_us(4), 1, 2, 0);
  log.append(a, SimTime::from_us(5), 2, 3, 0);
  log.append(a, SimTime::from_us(6), 3, 4, 0);
  got.clear();
  for (const RawEvent& e : view_a().after(seen)) {
    got.push_back(e.us);
  }
  EXPECT_EQ(got, (std::vector<std::int64_t>{5, 6}));
  EXPECT_EQ(view_a().after(seen).size(), 2u);
}

TEST(DecisionLog, AViewSeesTheRecordsItWasMadeWith) {
  const std::vector<double> modes = index_modes();
  DecisionLog log;
  DecisionChain chain;
  log.append(chain, SimTime::from_us(1), 0, 1, 0);
  const DecisionView<RawEvent> before{log, modes, chain};
  log.append(chain, SimTime::from_us(2), 1, 2, 0);
  std::size_t n = 0;
  for (const RawEvent& e : before) {
    EXPECT_EQ(e.us, 1);
    ++n;
  }
  EXPECT_EQ(n, 1u);
}

TEST(DecisionLog, FanDutiesDecodeBitForBit) {
  const FanFamily family{FanControlConfig{}};
  const auto modes = family.array.available_modes();
  ASSERT_EQ(modes.size(), 100u);
  expect_cells_named_by_index(family.array);
  DecisionLog log;
  DecisionChain chain;
  const SimTime at = SimTime::from_us(123'456'789);
  for (std::size_t k = 0; k < modes.size(); ++k) {
    log.append(chain, at, k, modes.size() - 1 - k, k % 2 == 0 ? DecisionLog::kLevel2 : 0);
  }
  std::size_t k = 0;
  for (const FanEvent& e : DecisionView<FanEvent>{log, modes, chain}) {
    EXPECT_EQ(bits(e.time_s), bits(at.seconds()));
    EXPECT_EQ(bits(e.from_duty), bits(static_cast<double>(k + 1))) << "duty " << k + 1 << " %";
    EXPECT_EQ(bits(e.to_duty), bits(modes[modes.size() - 1 - k]));
    EXPECT_EQ(e.used_level2, k % 2 == 0);
    ++k;
  }
  EXPECT_EQ(k, 100u);
}

TEST(DecisionLog, CpufreqFrequenciesDecodeBitForBit) {
  ControllerRig rig;
  const TdvfsFamily family{TdvfsConfig{}, *rig.cpufreq};
  const auto modes = family.array.available_modes();
  std::vector<double> listed = rig.cpufreq->available_ghz();
  ASSERT_EQ(modes.size(), listed.size());
  std::sort(listed.begin(), listed.end(), std::greater<>());
  expect_cells_named_by_index(family.array);
  DecisionLog log;
  DecisionChain chain;
  for (std::size_t k = 0; k < modes.size(); ++k) {
    log.append(chain, SimTime::from_us(static_cast<std::int64_t>(k) * 250'000), 0, k, 0);
  }
  std::size_t k = 0;
  for (const TdvfsEvent& e : DecisionView<TdvfsEvent>{log, modes, chain}) {
    const SimTime at = SimTime::from_us(static_cast<std::int64_t>(k) * 250'000);
    EXPECT_EQ(bits(e.time_s), bits(at.seconds()));
    EXPECT_EQ(bits(e.from_ghz), bits(listed.front()));
    EXPECT_EQ(bits(e.to_ghz), bits(listed[k])) << listed[k] << " GHz";
    ++k;
  }
  EXPECT_EQ(k, listed.size());
}

TEST(DecisionLog, ClampPercentsDecodeExactly) {
  ControllerRig rig;
  const sysfs::PowerClampDevice clamp{rig.fs, "/sys/class/thermal", 0, rig.cpu};
  IdleInjectionConfig cfg;
  cfg.percent_step = 1;  // every percent the clamp accepts
  const IdleInjectionFamily family{cfg, clamp};
  const auto modes = family.array.available_modes();
  ASSERT_EQ(modes.size(), static_cast<std::size_t>(clamp.max_state()) + 1);
  expect_cells_named_by_index(family.array);
  DecisionLog log;
  DecisionChain chain;
  for (std::size_t k = 0; k < modes.size(); ++k) {
    log.append(chain, SimTime::from_us(7), k, 0, DecisionLog::kRestore);
  }
  long percent = 0;
  for (const ClampEvent& e : DecisionView<ClampEvent>{log, modes, chain}) {
    EXPECT_EQ(e.from_percent, percent);
    EXPECT_EQ(e.to_percent, 0);
    ++percent;
  }
  EXPECT_EQ(percent, clamp.max_state() + 1);
}

/// The kFanRetarget events on `ring`, in order.
std::vector<obs::TraceEvent> retargets_on(const obs::TraceRing& ring) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : ring.events()) {
    if (e.type == obs::TraceEventType::kFanRetarget) {
      out.push_back(e);
    }
  }
  return out;
}

/// Warms the die 0.3 degC a tick until `fan` has made `retargets` retargets.
SimTime heat_until(ControllerRig& rig, DynamicFanController& fan, std::uint64_t retargets,
                   SimTime now, double& temp) {
  for (int i = 0; i < 400 && fan.retarget_count() < retargets; ++i) {
    now.advance_us(250000);
    temp += 0.3;
    rig.tick(fan, temp, now);
  }
  return now;
}

TEST(DecisionLog, SetPolicyRecordsTheFromItWrote) {
  ControllerRig rig;
  FanControlConfig cfg;
  cfg.pp = PolicyParam{90};  // a long gentle ramp
  DynamicFanController fan{*rig.hwmon, cfg};
  obs::TraceRing ring{0, 1u << 12};
  fan.set_trace(&ring);
  double temp = 40.0;
  SimTime now = heat_until(rig, fan, 1, SimTime{}, temp);
  ASSERT_EQ(fan.retarget_count(), 1u);
  const FanEvent first = fan.events().back();

  // The aggressive fill holds another duty at the same index, so the next
  // retarget starts from that cell, not from where the last one ended.
  fan.set_policy(PolicyParam{5});
  ASSERT_NE(fan.array().mode(fan.current_index()), first.to_duty);
  now = heat_until(rig, fan, 2, now, temp);
  ASSERT_EQ(fan.retarget_count(), 2u);
  const FanEvent second = fan.events().back();
  EXPECT_NE(bits(second.from_duty), bits(first.to_duty));

  const std::vector<obs::TraceEvent> traced = retargets_on(ring);
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(bits(second.from_duty), bits(traced[1].a));
  EXPECT_EQ(bits(second.to_duty), bits(traced[1].b));
  EXPECT_EQ(bits(second.time_s), bits(traced[1].t_s));
}

TEST(DecisionLog, FailedFanWriteIsTracedButNotRecorded) {
  ControllerRig rig;
  FanControlConfig cfg;
  cfg.pp = PolicyParam{50};
  DynamicFanController fan{*rig.hwmon, cfg};
  obs::TraceRing ring{0, 1u << 12};
  fan.set_trace(&ring);
  // The first tick takes the fan over while the bus still works.
  double temp = 40.0;
  SimTime now = rig.run_flat(fan, temp, 1);
  rig.bus.inject_bus_fault();
  for (int i = 0; i < 40 && retargets_on(ring).empty(); ++i) {
    now.advance_us(250000);
    temp += 0.3;
    rig.tick(fan, temp, now);
  }
  rig.bus.clear_bus_fault();

  const std::vector<obs::TraceEvent> traced = retargets_on(ring);
  ASSERT_FALSE(traced.empty());
  EXPECT_EQ(traced.front().flags & obs::kTraceFlagWriteOk, 0u);
  EXPECT_TRUE(fan.events().empty());
  EXPECT_EQ(fan.retarget_count(), 0u);
  EXPECT_EQ(fan.family().log.size(), 0u);
  EXPECT_EQ(fan.family().log.memory_bytes(), 0u);
}

}  // namespace
}  // namespace thermctl::core
