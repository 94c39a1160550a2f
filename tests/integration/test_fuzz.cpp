// Randomized closed-loop robustness: many seeds, random workloads, random
// policies — the invariants that must hold for *every* run, not just the
// paper's scenarios.
#include <algorithm>
#include <iterator>
#include <memory>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/engine.hpp"
#include "core/unified_controller.hpp"
#include "workload/synthetic.hpp"

namespace thermctl::core {
namespace {

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

constexpr std::uint64_t kSeeds[] = {1u,   7u,    42u,    99u,    123u,   500u,
                                    1234u, 5555u, 90210u, 777777u, 31337u, 271828u};
/// Seeds whose rig must engage the backstop, so the invariants keep running
/// with a clamp active.
constexpr std::uint64_t kBackstopSeeds[] = {1u, 42u, 31337u};

/// Two nodes under random loads and a random inlet pocket, each run by a
/// unified controller at a random Pp and fan ceiling. The idle-injection
/// backstop sits at 48 degC rather than its 56 degC default, which no seed
/// reaches: at 48 some seeds engage it, so the invariants also run with a
/// clamp active.
struct ClosedLoopRig {
  explicit ClosedLoopRig(std::uint64_t seed) {
    Rng rng{seed};

    cluster::NodeParams params;
    params.seed = rng.next_u64();
    rack = std::make_unique<cluster::Cluster>(2, params);
    for (std::size_t i = 0; i < 2; ++i) {
      rack->node(i).set_utilization(Utilization{0.02});
    }
    // Random (but sane) inlet perturbation on one node.
    rack->set_inlet_temperature(1, Celsius{29.5 + rng.uniform() * 8.0});
    rack->settle_all();

    pp = 1 + static_cast<int>(rng.below(100));
    max_duty = 20.0 + rng.uniform() * 80.0;

    cluster::EngineConfig engine_cfg;
    engine_cfg.horizon = Seconds{120.0};
    engine = std::make_unique<cluster::Engine>(*rack, engine_cfg);

    loads.push_back(random_load(rng));
    loads.push_back(random_load(rng));
    engine->set_node_load(0, &loads[0]);
    engine->set_node_load(1, &loads[1]);

    for (std::size_t i = 0; i < 2; ++i) {
      UnifiedConfig cfg;
      cfg.pp = PolicyParam{pp};
      cfg.fan.max_duty = DutyCycle{max_duty};
      cfg.enable_idle_injection = true;
      cfg.idle.threshold = Celsius{48.0};
      controllers.push_back(std::make_unique<UnifiedController>(
          rack->node(i).hwmon(), rack->node(i).cpufreq(), rack->node(i).powerclamp(), cfg));
      UnifiedController* raw = controllers.back().get();
      engine->add_periodic(params.sample_period, [raw](SimTime now) { raw->on_sample(now); });
    }

    result = engine->run();
  }

  [[nodiscard]] std::size_t clamp_events() const {
    std::size_t n = 0;
    for (const auto& ctl : controllers) {
      n += ctl->idle_injection().events().size();
    }
    return n;
  }

  std::unique_ptr<cluster::Cluster> rack;
  std::unique_ptr<cluster::Engine> engine;
  std::vector<workload::SegmentLoad> loads;
  std::vector<std::unique_ptr<UnifiedController>> controllers;
  int pp = 0;
  double max_duty = 0.0;
  cluster::RunResult result;
};

class ClosedLoopFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosedLoopFuzz, InvariantsHoldUnderRandomConditions) {
  const ClosedLoopRig rig{GetParam()};
  const cluster::RunResult& result = rig.result;

  // Invariant 1: the fan never exceeds its configured ceiling or drops
  // below the physical floor (modulo integer duty modes + the 8-bit PWM
  // register, worst case just under 1%).
  for (const auto& node : result.nodes) {
    for (double duty : node.duty) {
      EXPECT_LE(duty, rig.max_duty + 1.0) << "seed " << GetParam();
      EXPECT_GE(duty, 0.0);
    }
  }

  // Invariant 2: the OS-selected frequency is always a ladder member.
  for (const auto& node : result.nodes) {
    for (double f : node.freq_ghz) {
      const bool legal = f == 2.4 || f == 2.2 || f == 2.0 || f == 1.8 || f == 1.0;
      EXPECT_TRUE(legal) << "frequency " << f << " seed " << GetParam();
    }
  }

  // Invariant 3: nothing melted or halted — the protection ladder plus the
  // controllers keep the die below THERMTRIP under any ≤100% load.
  EXPECT_LT(result.max_die_temp(), 90.0) << "seed " << GetParam();
  EXPECT_FALSE(rig.rack->node(0).halted());
  EXPECT_FALSE(rig.rack->node(1).halted());

  // Invariant 4: controller indexes stayed inside their arrays (would have
  // aborted otherwise) and Pp flowed everywhere.
  for (const auto& ctl : rig.controllers) {
    EXPECT_EQ(ctl->fan().array().policy().value, rig.pp);
    EXPECT_LT(ctl->fan().current_index(), ctl->fan().array().size());
    EXPECT_LT(ctl->dvfs().current_index(), ctl->dvfs().array().size());
  }

  // Invariant 5: series are well-formed (aligned, finite).
  for (const auto& node : result.nodes) {
    ASSERT_EQ(node.die_temp.size(), result.times.size());
    for (double t : node.die_temp) {
      EXPECT_TRUE(std::isfinite(t));
      EXPECT_GT(t, 0.0);
      EXPECT_LT(t, 150.0);
    }
  }

  // Coverage: the backstop engages where it always has, so the invariants
  // above cannot silently stop seeing it active.
  if (std::find(std::begin(kBackstopSeeds), std::end(kBackstopSeeds), GetParam()) !=
      std::end(kBackstopSeeds)) {
    EXPECT_GE(rig.clamp_events(), 1u) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedLoopFuzz, ::testing::ValuesIn(kSeeds));

TEST(ClosedLoopFuzzDeterminism, SameSeedSameTrajectory) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng{seed};
    cluster::NodeParams params;
    params.seed = rng.next_u64();
    cluster::Cluster rack{1, params};
    rack.node(0).set_utilization(Utilization{0.02});
    rack.settle_all();
    cluster::EngineConfig cfg;
    cfg.horizon = Seconds{60.0};
    cluster::Engine engine{rack, cfg};
    auto load = random_load(rng);
    engine.set_node_load(0, &load);
    UnifiedConfig ucfg;
    ucfg.pp = PolicyParam{1 + static_cast<int>(rng.below(100))};
    UnifiedController ctl{rack.node(0).hwmon(), rack.node(0).cpufreq(), ucfg};
    engine.add_periodic(Seconds{0.25}, [&ctl](SimTime now) { ctl.on_sample(now); });
    return engine.run();
  };
  const cluster::RunResult a = run_once(424242);
  const cluster::RunResult b = run_once(424242);
  ASSERT_EQ(a.times.size(), b.times.size());
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.nodes[0].die_temp[i], b.nodes[0].die_temp[i]);
    ASSERT_DOUBLE_EQ(a.nodes[0].duty[i], b.nodes[0].duty[i]);
    ASSERT_DOUBLE_EQ(a.nodes[0].freq_ghz[i], b.nodes[0].freq_ghz[i]);
  }
}

}  // namespace
}  // namespace thermctl::core
