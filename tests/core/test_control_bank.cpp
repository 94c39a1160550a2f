// ControlBank — batched family ticks must be indistinguishable from N
// independent controllers, and window pooling must degrade gracefully on
// heterogeneous configs.
#include "core/control_bank.hpp"

#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "controller_rig.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

TEST(FixedSlab, ConstructsInPlaceAndDestroysInReverse) {
  static std::vector<int> destroyed;
  struct Probe {
    int id;
    explicit Probe(int i) : id(i) {}
    Probe(const Probe&) = delete;
    ~Probe() { destroyed.push_back(id); }
  };
  destroyed.clear();
  {
    FixedSlab<Probe> slab{3};
    EXPECT_TRUE(slab.empty());
    Probe& a = slab.emplace_back(10);
    slab.emplace_back(11);
    slab.emplace_back(12);
    EXPECT_EQ(slab.size(), 3u);
    EXPECT_EQ(slab[0].id, 10);
    EXPECT_EQ(&slab[0], &a);  // stable addresses
  }
  EXPECT_EQ(destroyed, (std::vector<int>{12, 11, 10}));
}

TEST(ControlBank, BatchedFanTicksMatchStandaloneControllers) {
  // Three nodes with *different* temperature scripts, run once through a
  // bank (one tick_fans per step) and once as three standalone controllers
  // (three on_sample calls) — duty trajectories must agree exactly.
  constexpr std::size_t kNodes = 3;
  std::vector<std::unique_ptr<ControllerRig>> bank_rigs;
  std::vector<std::unique_ptr<ControllerRig>> solo_rigs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank_rigs.push_back(std::make_unique<ControllerRig>());
    solo_rigs.push_back(std::make_unique<ControllerRig>());
  }

  FanControlConfig cfg;
  ControlBank bank{kNodes, nullptr};  // no fleet SoA: per-object read path
  std::vector<std::unique_ptr<DynamicFanController>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_fan(i, *bank_rigs[i]->hwmon, cfg);
    solo.push_back(std::make_unique<DynamicFanController>(*solo_rigs[i]->hwmon, cfg));
  }
  ASSERT_EQ(bank.fan_count(), kNodes);

  SimTime now;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      // Node i ramps at its own rate, with a mid-run cooldown.
      const double temp =
          40.0 + 0.08 * static_cast<double>(i + 1) * (step < 120 ? step : 240 - step);
      bank_rigs[i]->truth = temp;
      bank_rigs[i]->sensor.sample();
      solo_rigs[i]->truth = temp;
      solo_rigs[i]->sensor.sample();
    }
    bank.tick_fans(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      ASSERT_EQ(bank.fan(i).current_duty().percent(), solo[i]->current_duty().percent())
          << "node " << i << " step " << step;
    }
  }
}

TEST(ControlBank, BatchedTdvfsTicksMatchStandaloneDaemons) {
  constexpr std::size_t kNodes = 2;
  std::vector<std::unique_ptr<ControllerRig>> bank_rigs;
  std::vector<std::unique_ptr<ControllerRig>> solo_rigs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank_rigs.push_back(std::make_unique<ControllerRig>());
    solo_rigs.push_back(std::make_unique<ControllerRig>());
  }
  TdvfsConfig cfg;
  cfg.threshold = Celsius{50.0};
  ControlBank bank{kNodes, nullptr};
  std::vector<std::unique_ptr<TdvfsDaemon>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_tdvfs(i, *bank_rigs[i]->hwmon, *bank_rigs[i]->cpufreq, cfg);
    solo.push_back(
        std::make_unique<TdvfsDaemon>(*solo_rigs[i]->hwmon, *solo_rigs[i]->cpufreq, cfg));
  }
  SimTime now;
  for (int step = 0; step < 160; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double temp = 44.0 + 0.15 * (i == 0 ? step : 160 - step);
      bank_rigs[i]->truth = temp;
      bank_rigs[i]->sensor.sample();
      solo_rigs[i]->truth = temp;
      solo_rigs[i]->sensor.sample();
    }
    bank.tick_tdvfs(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      ASSERT_EQ(bank_rigs[i]->cpu.frequency().value(), solo_rigs[i]->cpu.frequency().value())
          << "node " << i << " step " << step;
    }
  }
}

TEST(ControlBank, HeterogeneousWindowConfigKeepsInlineStorage) {
  // The SoA window pool is sized from the family's first window; a node with
  // a different geometry must keep its inline storage (pooled = false) and
  // still control correctly.
  ControllerRig a;
  ControllerRig b;
  ControllerRig c;
  FanControlConfig standard;
  FanControlConfig wide = standard;
  wide.window.level1_size = 8;

  ControlBank bank{3, nullptr};
  bank.emplace_fan(0, *a.hwmon, standard);
  bank.emplace_fan(1, *b.hwmon, wide);  // odd one out
  bank.emplace_fan(2, *c.hwmon, standard);
  EXPECT_TRUE(bank.fan_window_pooled(0));
  EXPECT_FALSE(bank.fan_window_pooled(1));
  EXPECT_TRUE(bank.fan_window_pooled(2));

  // The odd window still rounds at its own cadence: 8 samples per round.
  SimTime now;
  for (int step = 0; step < 8; ++step) {
    now.advance_us(250000);
    for (ControllerRig* rig : {&a, &b, &c}) {
      rig->truth = 55.0;
      rig->sensor.sample();
    }
    bank.tick_fans(now);
  }
  EXPECT_EQ(bank.fan(1).window().level1_fill(), 0u);  // exactly one round closed
  EXPECT_EQ(bank.fan(0).window().level1_fill(), 0u);  // two rounds of 4
}

TEST(ControlBankDeath, SparseEmplacementAborts) {
  ControllerRig rig;
  ControlBank bank{4, nullptr};
  FanControlConfig cfg;
  EXPECT_DEATH(bank.emplace_fan(2, *rig.hwmon, cfg), "dense");
}

}  // namespace
}  // namespace thermctl::core
