// ControlBank — batched family ticks must be indistinguishable from N
// independent controllers, whatever their window geometries and whichever
// families share the bank.
//
// Each bank rig's ThermalSensor is a row of a test-owned sensor group, as a
// fleet's sensors are, and the bank reads that group's reading column.
// The standalone controllers read the same temperatures through the hwmon
// temp1_input attribute, so every comparison pits the batched read against
// the per-node VFS read path.
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
#include "sysfs/hwmon.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;
using testing::ScriptedSensors;

/// One controller rig per row of `sensors`, its sensor on that row.
std::vector<std::unique_ptr<ControllerRig>> rigs_on(ScriptedSensors& sensors) {
  std::vector<std::unique_ptr<ControllerRig>> rigs;
  for (std::size_t i = 0; i < sensors.last_degc.size(); ++i) {
    rigs.push_back(std::make_unique<ControllerRig>(sensors, i));
  }
  return rigs;
}

/// Same fill on both levels and, once level two holds a round, the same
/// front and rear bits.
bool same_window(const TwoLevelWindow& a, const TwoLevelWindow& b) {
  if (a.level1_fill() != b.level1_fill() || a.level2_fill() != b.level2_fill()) {
    return false;
  }
  return a.level2_fill() == 0 || (a.level2_front().value() == b.level2_front().value() &&
                                   a.level2_rear().value() == b.level2_rear().value());
}

/// A ramp up to step 120, then back down: enough to move fans and tDVFS.
double ramp(int step, std::size_t node) {
  return 40.0 + 0.08 * static_cast<double>(node + 1) * (step < 120 ? step : 240 - step);
}

TEST(ControlBank, BatchedFanTicksMatchStandaloneControllers) {
  // Three nodes with *different* temperature scripts, run once through a
  // bank (one tick_fans per step) and once as three standalone controllers
  // (three on_sample calls) — duty trajectories must agree exactly.
  constexpr std::size_t kNodes = 3;
  ScriptedSensors sensors{kNodes};
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
      const double temp = ramp(step, i);
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
  ScriptedSensors sensors{kNodes};
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

TEST(ControlBank, BankedUnifiedWindowsReadTheSameRoundsAsStandaloneOnes) {
  // The one window of each banked unified node must track a standalone
  // controller's window exactly.
  constexpr std::size_t kNodes = 2;
  ScriptedSensors sensors{kNodes};
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
      const UnifiedController& banked = bank.unified(i);
      ASSERT_TRUE(same_window(banked.window(), solo[i]->window()))
          << "node " << i << " step " << step;
      ASSERT_EQ(banked.fan().current_duty().percent(), solo[i]->fan().current_duty().percent());
      ASSERT_EQ(bank_rigs[i]->cpu.frequency().value(), solo_rigs[i]->cpu.frequency().value());
    }
  }
  // The script drove both techniques.
  EXPECT_GT(bank.unified(1).fan().retarget_count(), 0u);
  EXPECT_FALSE(bank.unified(1).dvfs().events().empty());
}

TEST(ControlBank, EveryFamilyShapeTicksLikeStandaloneControllers) {
  // A family has one array bound and one duty range, whatever they are: a
  // bank of each shape must match standalone controllers of that shape.
  constexpr std::size_t kNodes = 2;
  std::vector<FanControlConfig> cfgs(3);
  cfgs[1].max_duty = DutyCycle{50.0};  // a weaker fan (Fig. 7)
  cfgs[2].array_size = 64;
  cfgs[2].min_duty = DutyCycle{10.0};

  for (const FanControlConfig& cfg : cfgs) {
    ScriptedSensors sensors{kNodes};
    ScriptedSensors solo_sensors{kNodes};
    auto bank_rigs = rigs_on(sensors);
    auto solo_rigs = rigs_on(solo_sensors);
    ControlBank bank{kNodes, sensors.last_degc.data()};
    std::vector<std::unique_ptr<DynamicFanController>> solo;
    for (std::size_t i = 0; i < kNodes; ++i) {
      bank.emplace_fan(i, *bank_rigs[i]->hwmon, cfg);
      solo.push_back(std::make_unique<DynamicFanController>(*solo_rigs[i]->hwmon, cfg));
    }
    SimTime now;
    for (int step = 0; step < 200; ++step) {
      now.advance_us(250000);
      for (std::size_t i = 0; i < kNodes; ++i) {
        bank_rigs[i]->truth = ramp(step, i);
        bank_rigs[i]->sensor.sample();
        solo_rigs[i]->truth = ramp(step, i);
        solo_rigs[i]->sensor.sample();
      }
      bank.tick_fans(now);
      for (std::size_t i = 0; i < kNodes; ++i) {
        solo[i]->on_sample(now);
        ASSERT_TRUE(same_window(bank.fan(i).window(), solo[i]->window()))
            << "N " << cfg.array_size << " node " << i << " step " << step;
        ASSERT_EQ(bank.fan(i).current_duty().percent(), solo[i]->current_duty().percent())
            << "N " << cfg.array_size << " node " << i << " step " << step;
      }
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      EXPECT_EQ(bank.fan(i).array().size(), cfg.array_size);
      EXPECT_GT(bank.fan(i).retarget_count(), 0u) << "node " << i;
    }
  }
}

TEST(ControlBank, NodesOfOneFamilyShareItsConstantsButKeepTheirOwnPp) {
  // One config, one selector, one mode list and one parsed frequency list
  // per family; a node's own Pp re-tunes only its own array.
  constexpr std::size_t kNodes = 3;
  ScriptedSensors sensors{kNodes};
  auto rigs = rigs_on(sensors);
  ControlBank bank{kNodes, sensors.last_degc.data()};
  UnifiedConfig cfg;
  for (std::size_t i = 0; i < kNodes; ++i) {
    cfg.pp = PolicyParam{i == 2 ? 80 : 50};
    bank.emplace_unified(i, *rigs[i]->hwmon, *rigs[i]->cpufreq, cfg);
  }
  EXPECT_EQ(&bank.unified(0).dvfs().config(), &bank.unified(1).dvfs().config());
  EXPECT_EQ(&bank.unified(0).dvfs().config(), &bank.unified(2).dvfs().config());
  EXPECT_EQ(bank.unified(0).fan().array().available_modes().data(),
            bank.unified(2).fan().array().available_modes().data());
  EXPECT_EQ(bank.unified(2).fan().array().policy().value, 80);
  EXPECT_EQ(bank.unified(2).dvfs().array().policy().value, 80);
  EXPECT_EQ(bank.unified(0).dvfs().array().policy().value, 50);
  // Each rig's CPU has its own p-state table, listing the same frequencies:
  // the family admits each node and every array views its one mode list.
  EXPECT_EQ(bank.unified(0).dvfs().array().available_modes().data(),
            bank.unified(1).dvfs().array().available_modes().data());
  EXPECT_EQ(bank.unified(0).dvfs().array().available_modes().data(),
            bank.unified(2).dvfs().array().available_modes().data());
}

TEST(ControlBank, UnifiedControllerStaysSmall) {
  // One window, pointers to the family's constants and a 12-byte chain into
  // each family's decision log: a 100k-node bank must not creep back
  // towards two windows and two config copies a node, nor towards a
  // per-technique event vector (24 bytes each). The pins are the x86-64
  // sizes.
  EXPECT_LE(sizeof(UnifiedController), 424u);
  EXPECT_LE(sizeof(DynamicFanController) + sizeof(FanControlConfig), 416u);
  EXPECT_LE(sizeof(TdvfsDaemon) + sizeof(TdvfsConfig), 456u);
}

TEST(ControlBank, FanAndUnifiedFamiliesKeepSeparateWindows) {
  // Node 0's standalone-family fan controller and node 0's unified
  // controller share one bank; ticking both families must leave the fan
  // controller exactly where a fan controller alone in its own bank is.
  ScriptedSensors sensors{1};
  ScriptedSensors lone_sensors{1};
  auto rigs = rigs_on(sensors);
  auto lone_rigs = rigs_on(lone_sensors);
  FanControlConfig fan_cfg;
  UnifiedConfig unified_cfg;
  unified_cfg.tdvfs.threshold = Celsius{50.0};

  ControlBank bank{1, sensors.last_degc.data()};
  const DynamicFanController& fan = bank.emplace_fan(0, *rigs[0]->hwmon, fan_cfg);
  bank.emplace_unified(0, *rigs[0]->hwmon, *rigs[0]->cpufreq, unified_cfg);
  ControlBank lone_bank{1, lone_sensors.last_degc.data()};
  const DynamicFanController& lone = lone_bank.emplace_fan(0, *lone_rigs[0]->hwmon, fan_cfg);

  SimTime now;
  for (int step = 0; step < 200; ++step) {
    now.advance_us(250000);
    rigs[0]->truth = ramp(step, 1);
    rigs[0]->sensor.sample();
    lone_rigs[0]->truth = ramp(step, 1);
    lone_rigs[0]->sensor.sample();
    bank.tick_fans(now);
    bank.tick_unified(now);
    lone_bank.tick_fans(now);
    ASSERT_EQ(fan.window().level1_fill(), lone.window().level1_fill()) << "step " << step;
    ASSERT_TRUE(same_window(fan.window(), lone.window())) << "step " << step;
    ASSERT_EQ(fan.current_duty().percent(), lone.current_duty().percent()) << "step " << step;
  }
  EXPECT_GT(lone.retarget_count(), 0u);
}

TEST(ControlBank, BatchedReadingsQuantizeLikeHwmon) {
  // The bank's batched read and the per-node temp1_input read share one
  // millidegree quantizer. Feed both paths raw sensor values at
  // half-millidegree ties, below zero, and the untouched 0.0 °C placeholder;
  // a flat round's average is then the reading both controllers saw.
  ScriptedSensors sensors{1};
  ScriptedSensors solo_sensors{1};
  auto bank_rigs = rigs_on(sensors);
  auto solo_rigs = rigs_on(solo_sensors);
  TdvfsConfig cfg;
  ControlBank bank{1, sensors.last_degc.data()};
  const TdvfsDaemon& banked = bank.emplace_tdvfs(0, *bank_rigs[0]->hwmon,
                                                 *bank_rigs[0]->cpufreq, cfg);
  TdvfsDaemon solo{*solo_rigs[0]->hwmon, *solo_rigs[0]->cpufreq, cfg};

  SimTime now;
  // 0.0 first: neither sensor has sampled, so both rows hold the placeholder.
  for (const double raw : {0.0, 40.0005, 40.0015, 0.0005, -0.0005, -3.2115, -12.3456}) {
    sensors.last_degc[0] = raw;
    solo_sensors.last_degc[0] = raw;
    for (std::size_t k = 0; k < banked.window().config().level1_size; ++k) {
      now.advance_us(250000);
      bank.tick_tdvfs(now);
      solo.on_sample(now);
    }
    ASSERT_TRUE(banked.last_round_average().has_value());
    ASSERT_TRUE(solo.last_round_average().has_value());
    EXPECT_EQ(banked.last_round_average()->value(), solo.last_round_average()->value())
        << "raw " << raw;
    const Celsius expected =
        sysfs::HwmonDevice::from_millidegrees(sysfs::HwmonDevice::to_millidegrees(Celsius{raw}));
    EXPECT_NEAR(banked.last_round_average()->value(), expected.value(), 1e-12) << "raw " << raw;
  }
}

TEST(ControlBankDeath, SparseEmplacementAborts) {
  ScriptedSensors sensors{4};
  auto rigs = rigs_on(sensors);
  ControlBank bank{4, sensors.last_degc.data()};
  FanControlConfig cfg;
  EXPECT_DEATH(bank.emplace_fan(2, *rigs[0]->hwmon, cfg), "dense");
}

TEST(ControlBankDeath, EmplacePastCapacityAborts) {
  // Rig code and the plane's Pp sinks hold controller addresses, so a family
  // must never outgrow the storage reserved for it.
  ScriptedSensors sensors{2};
  auto rigs = rigs_on(sensors);
  ControlBank bank{1, sensors.last_degc.data()};
  FanControlConfig cfg;
  bank.emplace_fan(0, *rigs[0]->hwmon, cfg);
  EXPECT_DEATH(bank.emplace_fan(1, *rigs[1]->hwmon, cfg), "capacity");
}

TEST(ControlBankDeath, SecondConfigInOneFamilyAborts) {
  // Pp may differ per node; nothing else may.
  ScriptedSensors sensors{3};
  auto rigs = rigs_on(sensors);
  ControlBank bank{3, sensors.last_degc.data()};
  FanControlConfig cfg;
  bank.emplace_fan(0, *rigs[0]->hwmon, cfg);
  cfg.pp = PolicyParam{90};
  bank.emplace_fan(1, *rigs[1]->hwmon, cfg);
  cfg.max_duty = DutyCycle{75.0};
  EXPECT_DEATH(bank.emplace_fan(2, *rigs[2]->hwmon, cfg), "one config per controller family");

  ControlBank unified_bank{3, sensors.last_degc.data()};
  UnifiedConfig ucfg;
  unified_bank.emplace_unified(0, *rigs[0]->hwmon, *rigs[0]->cpufreq, ucfg);
  ucfg.tdvfs.threshold = Celsius{55.0};
  EXPECT_DEATH(unified_bank.emplace_unified(1, *rigs[1]->hwmon, *rigs[1]->cpufreq, ucfg),
               "one config per controller family");
}

TEST(ControlBankDeath, MissingSensorArrayAborts) {
  EXPECT_DEATH(ControlBank(2, nullptr), "sensor array");
}

}  // namespace
}  // namespace thermctl::core
