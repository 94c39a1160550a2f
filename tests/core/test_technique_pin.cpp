// Pins the bits of the window-driven techniques through their public
// surface: every event field and every recorded series of three runs,
// digested.
//
//  * A predictive fan under a seeded temperature walk and utilization
//    schedule: RAPL power steps move the feed-forward term, the energy
//    counter is preset near its range so it wraps mid-run (after one
//    implausible round the clamp discards), and an i2c bus-fault episode
//    fails retarget writes.
//  * A standalone idle-injection controller whose clamp triggers, deepens
//    under sustained heat and releases once the die cools.
//  * The two-node unified-plus-backstop rig of the closed-loop fuzz test,
//    at three seeds, digesting every recorded series and every technique's
//    events: once as the fuzz test builds it (the backstop's 56 °C
//    threshold is never held for its consistency rounds, so it stays
//    quiet) and once with the backstop lowered to 48 °C, where it engages
//    at every seed.
//
// A change to a technique's decision, commit, event or window path moves a
// digest.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "common/rng.hpp"
#include "controller_rig.hpp"
#include "core/idle_injection.hpp"
#include "core/predictive_fan.hpp"
#include "core/unified_controller.hpp"
#include "sysfs/powerclamp.hpp"
#include "sysfs/powercap.hpp"
#include "workload/synthetic.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// FNV-1a over the bit patterns of doubles and integers.
class Digest {
 public:
  void add(double x) { add_bits(std::bit_cast<std::uint64_t>(x)); }
  void add_bits(std::uint64_t u) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct PinRig : ControllerRig {
  sysfs::RaplDomain rapl{fs, "/sys/class/powercap", 0, cpu};
  sysfs::PowerClampDevice clamp{fs, "/sys/class/thermal", 0, cpu};
};

std::uint64_t predictive_fan_digest() {
  PinRig rig;
  PredictiveFanConfig cfg;
  cfg.base.pp = PolicyParam{80};
  PredictiveFanController ctl{*rig.hwmon, rig.rapl, cfg};
  Rng rng{20100913};
  Digest digest;
  SimTime now;
  double temp = 44.0;
  for (int i = 0; i < 720; ++i) {
    // Utilization steps every 8 s (idle, full, half, full, ...); the die
    // follows 2 s later, so each step's first rounds see power move while
    // the temperature has not.
    const auto utilization = [](int tick) {
      const int phase = (tick / 32) % 4;
      return phase == 0 ? 0.05 : (phase == 2 ? 0.5 : 1.0);
    };
    const double util = utilization(i);
    const double drift = (utilization(std::max(i - 8, 0)) - 0.6375) * 0.5;  // nets zero
    temp = std::clamp(temp + drift * rng.uniform() + 0.1 * (rng.uniform() - 0.5), 36.0, 78.0);
    if (i == 300) {
      // Near the top of the counter's range: one implausible round, then
      // a wrap a few rounds later.
      rig.cpu.preset_counters(0, 0, sysfs::RaplDomain::kMaxEnergyRangeUj - 40'000'000ULL);
    }
    if (i == 416) {
      // Down across the step to full load and its first rounds.
      rig.bus.inject_bus_fault();
    }
    if (i == 448) {
      rig.bus.clear_bus_fault();
    }
    rig.cpu.set_utilization(Utilization{util});
    rig.cpu.advance_counters(Seconds{0.25});
    now.advance_us(250000);
    rig.tick(ctl, temp, now);
    digest.add_bits(ctl.current_index());
    digest.add(ctl.current_duty().percent());
    digest.add(rig.chip.output_duty().percent());
  }
  for (const FanEvent& e : ctl.events()) {
    digest.add(e.time_s);
    digest.add(e.from_duty);
    digest.add(e.to_duty);
    digest.add_bits(e.used_level2 ? 1 : 0);
  }
  digest.add_bits(ctl.retarget_count());
  digest.add_bits(ctl.feedforward_count());
  return digest.value();
}

TEST(TechniquePin, PredictiveFanRun) {
  EXPECT_EQ(predictive_fan_digest(), 0x0cc2b0ccfc03efdbULL);
}

std::uint64_t idle_injection_digest() {
  PinRig rig;
  IdleInjectionConfig cfg;
  cfg.pp = PolicyParam{50};
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg};
  Rng rng{7};
  Digest digest;
  SimTime now;
  for (int i = 0; i < 400; ++i) {
    // Warm, then severe heat (trigger and deepen), then cool (release).
    const double base = i < 40 ? 52.0 : (i < 200 ? 59.0 : 49.0);
    const double temp = base + 1.5 * (rng.uniform() - 0.5);
    now.advance_us(250000);
    rig.tick(ctl, temp, now);
    digest.add_bits(ctl.current_index());
    digest.add(ctl.array().mode(ctl.current_index()));
    digest.add_bits(static_cast<std::uint64_t>(rig.clamp.cur_state()));
    digest.add(rig.cpu.idle_injector().fraction());
  }
  for (const ClampEvent& e : ctl.events()) {
    digest.add(e.time_s);
    digest.add_bits(static_cast<std::uint64_t>(e.from_percent));
    digest.add_bits(static_cast<std::uint64_t>(e.to_percent));
  }
  return digest.value();
}

TEST(TechniquePin, IdleInjectionRun) {
  EXPECT_EQ(idle_injection_digest(), 0xd09448f9f4dbc97aULL);
}

// The closed-loop fuzz test's random load and rig, verbatim.
workload::SegmentLoad random_load(Rng& rng) {
  std::vector<workload::LoadSegment> segments;
  const int n = 3 + static_cast<int>(rng.below(5));
  for (int i = 0; i < n; ++i) {
    workload::LoadSegment s;
    s.duration = Seconds{5.0 + rng.uniform() * 40.0};
    s.util_begin = rng.uniform();
    s.util_end = rng.uniform();
    if (rng.uniform() < 0.3) {
      s.jitter_amplitude = rng.uniform() * 0.4;
      s.jitter_period = Seconds{0.5 + rng.uniform() * 4.0};
    }
    s.noise_sigma = rng.uniform() * 0.05;
    segments.push_back(s);
  }
  return workload::SegmentLoad{std::move(segments), rng.next_u64()};
}

struct UnifiedRun {
  std::uint64_t digest = 0;
  std::size_t clamp_events = 0;
};

UnifiedRun unified_backstop_run(std::uint64_t seed, Celsius idle_threshold) {
  Rng rng{seed};
  cluster::NodeParams params;
  params.seed = rng.next_u64();
  cluster::Cluster rack{2, params};
  for (std::size_t i = 0; i < 2; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.set_inlet_temperature(1, Celsius{29.5 + rng.uniform() * 8.0});
  rack.settle_all();

  const int pp = 1 + static_cast<int>(rng.below(100));
  const double max_duty = 20.0 + rng.uniform() * 80.0;

  cluster::EngineConfig engine_cfg;
  engine_cfg.horizon = Seconds{120.0};
  cluster::Engine engine{rack, engine_cfg};

  std::vector<workload::SegmentLoad> loads;
  loads.push_back(random_load(rng));
  loads.push_back(random_load(rng));
  engine.set_node_load(0, &loads[0]);
  engine.set_node_load(1, &loads[1]);

  std::vector<std::unique_ptr<UnifiedController>> controllers;
  for (std::size_t i = 0; i < 2; ++i) {
    UnifiedConfig cfg;
    cfg.pp = PolicyParam{pp};
    cfg.fan.max_duty = DutyCycle{max_duty};
    cfg.enable_idle_injection = true;
    cfg.idle.threshold = idle_threshold;
    controllers.push_back(std::make_unique<UnifiedController>(
        rack.node(i).hwmon(), rack.node(i).cpufreq(), rack.node(i).powerclamp(), cfg));
    UnifiedController* raw = controllers.back().get();
    engine.add_periodic(params.sample_period, [raw](SimTime now) { raw->on_sample(now); });
  }

  const cluster::RunResult result = engine.run();

  Digest digest;
  for (double t : result.times) {
    digest.add(t);
  }
  for (const cluster::NodeSeries& node : result.nodes) {
    for (const std::vector<double>* series :
         {&node.die_temp, &node.sensor_temp, &node.duty, &node.rpm, &node.freq_ghz,
          &node.power_w, &node.util, &node.activity}) {
      digest.add_bits(series->size());
      for (double x : *series) {
        digest.add(x);
      }
    }
  }
  UnifiedRun run;
  for (const auto& ctl : controllers) {
    for (const FanEvent& e : ctl->fan().events()) {
      digest.add(e.time_s);
      digest.add(e.from_duty);
      digest.add(e.to_duty);
      digest.add_bits(e.used_level2 ? 1 : 0);
    }
    for (const TdvfsEvent& e : ctl->dvfs().events()) {
      digest.add(e.time_s);
      digest.add(e.from_ghz);
      digest.add(e.to_ghz);
    }
    for (const ClampEvent& e : ctl->idle_injection().events()) {
      digest.add(e.time_s);
      digest.add_bits(static_cast<std::uint64_t>(e.from_percent));
      digest.add_bits(static_cast<std::uint64_t>(e.to_percent));
    }
    run.clamp_events += ctl->idle_injection().events().size();
    digest.add_bits(ctl->fan().current_index());
    digest.add_bits(ctl->dvfs().current_index());
    digest.add_bits(ctl->idle_injection().current_index());
  }
  run.digest = digest.value();
  return run;
}

TEST(TechniquePin, UnifiedBackstopFuzzRig) {
  const std::uint64_t kSeeds[] = {1, 42, 31337};
  const std::uint64_t kQuiet[] = {0x7eaf61509d4e466bULL, 0x23c7436a95cdd4f2ULL,
                                   0x4f665ef44fbac038ULL};
  const std::uint64_t kEngaged[] = {0xab0509f352d3ca92ULL, 0xe0707183f4a4f210ULL,
                                     0x9eb9d74c005ad69eULL};
  for (std::size_t k = 0; k < std::size(kSeeds); ++k) {
    const UnifiedRun quiet = unified_backstop_run(kSeeds[k], Celsius{56.0});
    EXPECT_EQ(quiet.digest, kQuiet[k]) << "seed " << kSeeds[k];
    EXPECT_EQ(quiet.clamp_events, 0u) << "seed " << kSeeds[k];
    const UnifiedRun engaged = unified_backstop_run(kSeeds[k], Celsius{48.0});
    EXPECT_EQ(engaged.digest, kEngaged[k]) << "seed " << kSeeds[k];
    EXPECT_GT(engaged.clamp_events, 0u) << "seed " << kSeeds[k];
  }
}

}  // namespace
}  // namespace thermctl::core
