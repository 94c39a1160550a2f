#include "sysfs/powerclamp.hpp"

#include <gtest/gtest.h>

#include "hw/cpu_device.hpp"
#include "solo_devices.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {
namespace {

struct ClampRig {
  VirtualFs fs;
  hw::SoloCpu cpu;
  PowerClampDevice clamp{fs, "/sys/class/thermal", 0, cpu};
};

TEST(PowerClamp, TypeAttribute) {
  ClampRig rig;
  EXPECT_EQ(rig.fs.read("/sys/class/thermal/cooling_device0/type").value(),
            "intel_powerclamp");
}

TEST(PowerClamp, MaxStateFromInjectorCap) {
  ClampRig rig;
  EXPECT_EQ(rig.clamp.max_state(), 50);
  EXPECT_EQ(rig.fs.read_long("/sys/class/thermal/cooling_device0/max_state").value(), 50);
}

TEST(PowerClamp, CurStateWriteDrivesInjector) {
  ClampRig rig;
  ASSERT_TRUE(rig.fs.write("/sys/class/thermal/cooling_device0/cur_state", "30"));
  EXPECT_NEAR(rig.cpu.idle_injector().fraction(), 0.30, 1e-9);
  EXPECT_EQ(rig.clamp.cur_state(), 30);
}

TEST(PowerClamp, RejectsOutOfRangeStates) {
  ClampRig rig;
  EXPECT_FALSE(rig.fs.write("/sys/class/thermal/cooling_device0/cur_state", "51"));
  EXPECT_FALSE(rig.fs.write("/sys/class/thermal/cooling_device0/cur_state", "-1"));
  EXPECT_FALSE(rig.fs.write("/sys/class/thermal/cooling_device0/cur_state", "max"));
}

TEST(PowerClamp, ZeroReleasesInjection) {
  ClampRig rig;
  rig.clamp.set_cur_state(40);
  ASSERT_TRUE(rig.cpu.idle_injector().active());
  rig.clamp.set_cur_state(0);
  EXPECT_FALSE(rig.cpu.idle_injector().active());
}

TEST(PowerClamp, UsesDeepestCstateByDefault) {
  ClampRig rig;
  rig.clamp.set_cur_state(20);
  EXPECT_EQ(rig.cpu.idle_injector().state(), rig.cpu.idle_injector().cstate_count() - 1);
}

TEST(PowerClamp, CstateSelectable) {
  ClampRig rig;
  rig.clamp.set_cstate_index(0);
  rig.clamp.set_cur_state(20);
  EXPECT_EQ(rig.cpu.idle_injector().state(), 0u);
}

TEST(PowerClamp, DestructorRemovesAttributes) {
  VirtualFs fs;
  hw::SoloCpu cpu;
  {
    PowerClampDevice clamp{fs, "/sys/class/thermal", 1, cpu};
    EXPECT_TRUE(fs.exists("/sys/class/thermal/cooling_device1/cur_state"));
  }
  EXPECT_FALSE(fs.exists("/sys/class/thermal/cooling_device1/cur_state"));
}

}  // namespace
}  // namespace thermctl::sysfs
