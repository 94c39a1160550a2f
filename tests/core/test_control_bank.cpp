// ControlBank — batched family ticks must be indistinguishable from N
// independent controllers, and a family takes one window geometry only.
//
// Each bank rig's ThermalSensor holds its reading in a row of a test-owned
// SensorColumns, as a fleet's sensors do, and the bank latches from that
// column. The standalone controllers read the same temperatures through the
// hwmon temp1_input attribute, so every comparison pits the batched latch
// against the per-node VFS read path.
#include "core/control_bank.hpp"

#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.hpp"
#include "core/fan_policy.hpp"
#include "core/tdvfs.hpp"
#include "core/unified_controller.hpp"
#include "controller_rig.hpp"
#include "hw/thermal_sensor.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

/// One controller rig per row of `sensors`, its sensor on that row.
std::vector<std::unique_ptr<ControllerRig>> rigs_on(hw::SensorColumns& sensors) {
  std::vector<std::unique_ptr<ControllerRig>> rigs;
  for (std::size_t i = 0; i < sensors.last_degc.size(); ++i) {
    rigs.push_back(std::make_unique<ControllerRig>(sensors, i));
  }
  return rigs;
}

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
  hw::SensorColumns sensors{kNodes};
  auto bank_rigs = rigs_on(sensors);
  std::vector<std::unique_ptr<ControllerRig>> solo_rigs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    solo_rigs.push_back(std::make_unique<ControllerRig>());
  }

  FanControlConfig cfg;
  ControlBank bank{kNodes, sensors.last_degc.data()};
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
  hw::SensorColumns sensors{kNodes};
  auto bank_rigs = rigs_on(sensors);
  std::vector<std::unique_ptr<ControllerRig>> solo_rigs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    solo_rigs.push_back(std::make_unique<ControllerRig>());
  }
  TdvfsConfig cfg;
  cfg.threshold = Celsius{50.0};
  ControlBank bank{kNodes, sensors.last_degc.data()};
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

TEST(ControlBank, PooledUnifiedWindowsReadTheSameRoundsAsInlineOnes) {
  // bind_state frees a pooled window's inline cells; from then on every
  // round reads the bank's slots. Both windows of each unified node must
  // track a standalone (inline) controller's windows exactly.
  constexpr std::size_t kNodes = 2;
  hw::SensorColumns sensors{kNodes};
  auto bank_rigs = rigs_on(sensors);
  std::vector<std::unique_ptr<ControllerRig>> solo_rigs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    solo_rigs.push_back(std::make_unique<ControllerRig>());
  }
  UnifiedConfig cfg;
  cfg.tdvfs.threshold = Celsius{50.0};
  ControlBank bank{kNodes, sensors.last_degc.data()};
  std::vector<std::unique_ptr<UnifiedController>> solo;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bank.emplace_unified(i, *bank_rigs[i]->hwmon, *bank_rigs[i]->cpufreq, cfg);
    solo.push_back(std::make_unique<UnifiedController>(*solo_rigs[i]->hwmon,
                                                       *solo_rigs[i]->cpufreq, cfg));
  }

  auto same_window = [](TwoLevelWindow& a, TwoLevelWindow& b) {
    if (a.level1_fill() != b.level1_fill() || a.level2_fill() != b.level2_fill()) {
      return false;
    }
    return a.level2_fill() == 0 || (a.level2_front().value() == b.level2_front().value() &&
                                     a.level2_rear().value() == b.level2_rear().value());
  };
  SimTime now;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double ramp = step < 130 ? step : 260 - step;
      const double temp = 42.0 + 0.07 * static_cast<double>(i + 1) * ramp;
      bank_rigs[i]->truth = temp;
      bank_rigs[i]->sensor.sample();
      solo_rigs[i]->truth = temp;
      solo_rigs[i]->sensor.sample();
    }
    bank.tick_unified(now);
    for (std::size_t i = 0; i < kNodes; ++i) {
      solo[i]->on_sample(now);
      UnifiedController& pooled = bank.unified(i);
      ASSERT_TRUE(same_window(pooled.fan().window(), solo[i]->fan().window()))
          << "node " << i << " step " << step;
      ASSERT_TRUE(same_window(pooled.dvfs().window(), solo[i]->dvfs().window()))
          << "node " << i << " step " << step;
      ASSERT_EQ(pooled.fan().current_duty().percent(), solo[i]->fan().current_duty().percent());
      ASSERT_EQ(bank_rigs[i]->cpu.frequency().value(), solo_rigs[i]->cpu.frequency().value());
    }
  }
  // The script drove both techniques.
  EXPECT_GT(bank.unified(1).fan().retarget_count(), 0u);
  EXPECT_FALSE(bank.unified(1).dvfs().events().empty());
}

TEST(ControlBankDeath, SparseEmplacementAborts) {
  hw::SensorColumns sensors{4};
  auto rigs = rigs_on(sensors);
  ControlBank bank{4, sensors.last_degc.data()};
  FanControlConfig cfg;
  EXPECT_DEATH(bank.emplace_fan(2, *rigs[0]->hwmon, cfg), "dense");
}

TEST(ControlBankDeath, MixedWindowGeometryAborts) {
  // The SoA window pool is sized from the family's first window; a window of
  // another geometry has no slot in it.
  hw::SensorColumns sensors{2};
  auto rigs = rigs_on(sensors);
  FanControlConfig standard;
  FanControlConfig wide = standard;
  wide.window.level1_size = 8;
  ControlBank bank{2, sensors.last_degc.data()};
  bank.emplace_fan(0, *rigs[0]->hwmon, standard);
  EXPECT_DEATH(bank.emplace_fan(1, *rigs[1]->hwmon, wide), "geometry");
}

TEST(ControlBankDeath, MissingSensorArrayAborts) {
  EXPECT_DEATH(ControlBank(2, nullptr), "sensor array");
}

}  // namespace
}  // namespace thermctl::core
