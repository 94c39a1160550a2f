#include "sysfs/cpufreq.hpp"

#include <gtest/gtest.h>

#include "hw/cpu_device.hpp"
#include "solo_devices.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {
namespace {

struct CpufreqRig {
  VirtualFs fs;
  hw::SoloCpu cpu;
  CpufreqPolicy policy{fs, "/sys/devices/system/cpu", 0, cpu};
};

TEST(Cpufreq, ExposesAvailableFrequenciesInKhz) {
  CpufreqRig rig;
  const auto contents =
      rig.fs.read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies");
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(*contents, "2400000 2200000 2000000 1800000 1000000");
}

TEST(Cpufreq, CurFreqTracksDevice) {
  CpufreqRig rig;
  EXPECT_EQ(rig.policy.cur_khz(), 2400000);
  rig.cpu.set_pstate(3);
  EXPECT_EQ(rig.policy.cur_khz(), 1800000);
}

TEST(Cpufreq, BoundsAttributes) {
  CpufreqRig rig;
  EXPECT_EQ(rig.policy.max_khz(), 2400000);
  EXPECT_EQ(rig.policy.min_khz(), 1000000);
}

TEST(Cpufreq, SetspeedWriteChangesFrequency) {
  CpufreqRig rig;
  EXPECT_TRUE(rig.fs.write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed", "2000000"));
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.0);
}

TEST(Cpufreq, SetKhzHelper) {
  CpufreqRig rig;
  EXPECT_TRUE(rig.policy.set_khz(1000000));
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 1.0);
}

TEST(Cpufreq, SetspeedRejectsGarbage) {
  CpufreqRig rig;
  EXPECT_FALSE(rig.fs.write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed", "fast"));
  EXPECT_FALSE(rig.fs.write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed", "-5"));
}

TEST(Cpufreq, TransitionStatsExposed) {
  CpufreqRig rig;
  rig.policy.set_khz(1800000);
  rig.policy.set_khz(2400000);
  const auto trans = rig.fs.read_long("/sys/devices/system/cpu/cpu0/cpufreq/stats/total_trans");
  EXPECT_EQ(trans.value(), 2);
}

TEST(Cpufreq, AvailableGhzParses) {
  CpufreqRig rig;
  const auto ghz = rig.policy.available_ghz();
  ASSERT_EQ(ghz.size(), 5u);
  EXPECT_DOUBLE_EQ(ghz.front(), 2.4);
  EXPECT_DOUBLE_EQ(ghz.back(), 1.0);
}

TEST(Cpufreq, GovernorIsUserspace) {
  CpufreqRig rig;
  EXPECT_EQ(rig.fs.read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor").value(),
            "userspace");
}

TEST(Cpufreq, DestructorRemovesAttributes) {
  VirtualFs fs;
  hw::SoloCpu cpu;
  {
    CpufreqPolicy policy{fs, "/sys/devices/system/cpu", 0, cpu};
    EXPECT_TRUE(fs.exists("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"));
  }
  EXPECT_FALSE(fs.exists("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"));
}

}  // namespace
}  // namespace thermctl::sysfs
