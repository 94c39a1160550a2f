#include "core/idle_injection.hpp"

#include <gtest/gtest.h>

#include "controller_rig.hpp"
#include "core/unified_controller.hpp"
#include "sysfs/powerclamp.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

struct ClampControllerRig : ControllerRig {
  sysfs::PowerClampDevice clamp{fs, "/sys/class/thermal", 0, cpu};
};

IdleInjectionConfig cfg_at(int pp, double threshold = 56.0) {
  IdleInjectionConfig cfg;
  cfg.pp = PolicyParam{pp};
  cfg.threshold = Celsius{threshold};
  return cfg;
}

TEST(IdleInjection, InertBelowThreshold) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(50)};
  rig.run_flat(ctl, 54.0, 60);
  EXPECT_FALSE(rig.cpu.idle_injector().active());
  EXPECT_TRUE(ctl.events().empty());
}

TEST(IdleInjection, ClampsWhenConsistentlyHot) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(50)};
  rig.run_flat(ctl, 58.0, 16);  // 4 rounds at 58 degC
  EXPECT_TRUE(rig.cpu.idle_injector().active());
  ASSERT_FALSE(ctl.events().empty());
  EXPECT_GT(ctl.events().front().to_percent, 0);
}

TEST(IdleInjection, SingleHotRoundIgnored) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(50)};
  rig.run_flat(ctl, 54.0, 8);
  rig.run_flat(ctl, 58.0, 4);  // one round only
  rig.run_flat(ctl, 54.0, 8);
  EXPECT_FALSE(rig.cpu.idle_injector().active());
}

TEST(IdleInjection, ReleasesWhenCool) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(50)};
  rig.run_flat(ctl, 58.0, 24);
  ASSERT_TRUE(rig.cpu.idle_injector().active());
  // Below threshold − hysteresis (54) for release_rounds (8 rounds).
  rig.run_flat(ctl, 50.0, 40);
  EXPECT_FALSE(rig.cpu.idle_injector().active());
  EXPECT_EQ(ctl.current_index(), 0u);
}

TEST(IdleInjection, RepeatedTriggersDeepenClamp) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(50)};
  rig.run_flat(ctl, 60.0, 80);  // sustained severe heat
  EXPECT_GE(ctl.current_target(), 15);
}

TEST(IdleInjection, SmallerPpClampsHarderPerTrigger) {
  auto percent_after = [](int pp) {
    ClampControllerRig rig;
    IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(pp)};
    rig.run_flat(ctl, 59.0, 40);
    return ctl.current_target();
  };
  EXPECT_GE(percent_after(25), percent_after(75));
}

TEST(IdleInjection, SetPolicyRefills) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(75)};
  ctl.set_policy(PolicyParam{25});
  EXPECT_EQ(ctl.array().policy().value, 25);
}

TEST(IdleInjection, ModesAreLegalClampStates) {
  ClampControllerRig rig;
  IdleInjectionController ctl{*rig.hwmon, rig.clamp, cfg_at(50)};
  for (std::size_t i = 0; i < ctl.array().size(); ++i) {
    const double mode = ctl.array().mode(i);
    EXPECT_GE(mode, 0.0);
    EXPECT_LE(mode, static_cast<double>(rig.clamp.max_state()));
  }
  EXPECT_DOUBLE_EQ(ctl.array().least_effective(), 0.0);
  EXPECT_DOUBLE_EQ(ctl.array().most_effective(),
                   static_cast<double>(rig.clamp.max_state()));
}

TEST(UnifiedThreeTechniques, StagedEscalation) {
  ClampControllerRig rig;
  UnifiedConfig cfg;
  cfg.pp = PolicyParam{50};
  cfg.tdvfs.threshold = Celsius{51.0};
  cfg.enable_idle_injection = true;
  cfg.idle.threshold = Celsius{56.0};
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, rig.clamp, cfg};
  ASSERT_TRUE(uc.has_idle_injection());

  // Warm (52): DVFS engages, clamp does not.
  rig.run_flat(uc, 52.0, 24);
  EXPECT_LT(rig.cpu.frequency().value(), 2.4);
  EXPECT_FALSE(rig.cpu.idle_injector().active());

  // Severe (58): the clamp backstops.
  rig.run_flat(uc, 58.0, 24);
  EXPECT_TRUE(rig.cpu.idle_injector().active());
}

TEST(UnifiedThreeTechniques, OnePpFlowsToAllThree) {
  ClampControllerRig rig;
  UnifiedConfig cfg;
  cfg.pp = PolicyParam{30};
  cfg.enable_idle_injection = true;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, rig.clamp, cfg};
  EXPECT_EQ(uc.fan().array().policy().value, 30);
  EXPECT_EQ(uc.dvfs().array().policy().value, 30);
  EXPECT_EQ(uc.idle_injection().array().policy().value, 30);
  uc.set_policy(PolicyParam{70});
  EXPECT_EQ(uc.idle_injection().array().policy().value, 70);
}

TEST(UnifiedThreeTechniques, TwoArgConstructorHasNoClamp) {
  ClampControllerRig rig;
  UnifiedConfig cfg;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, cfg};
  EXPECT_FALSE(uc.has_idle_injection());
}

TEST(UnifiedThreeTechniques, ClampConstructorWithoutFlagHasNoBackstop) {
  // The clamp alone does not allocate a backstop; only the flag does.
  ClampControllerRig rig;
  UnifiedConfig cfg;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, rig.clamp, cfg};
  EXPECT_FALSE(uc.has_idle_injection());
  rig.run_flat(uc, 70.0, 24);  // hot, yet nothing injects idle time
  EXPECT_FALSE(rig.cpu.idle_injector().active());
}

}  // namespace
}  // namespace thermctl::core
