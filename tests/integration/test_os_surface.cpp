// OS-surface contract test: the complete sysfs tree a node exposes.
//
// Controllers, operator tooling and the thermctld example all navigate this
// tree by path; this test pins the full attribute inventory so an accidental
// rename or dropped attribute fails loudly. It is the simulation's
// equivalent of a kernel ABI test.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

namespace thermctl::cluster {
namespace {

TEST(OsSurface, FullAttributeInventory) {
  NodeParams params;
  Cluster fleet{1, params};
  Node& node = fleet.node(0);

  const std::vector<std::string> expected{
      // cpufreq (in-band DVFS plane)
      "/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq",
      "/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_min_freq",
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies",
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq",
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed",
      "/sys/devices/system/cpu/cpu0/cpufreq/stats/total_trans",
      // hwmon (lm-sensors plane: temperature, fan, PWM)
      "/sys/class/hwmon/hwmon0/fan1_input",
      "/sys/class/hwmon/hwmon0/name",
      "/sys/class/hwmon/hwmon0/pwm1",
      "/sys/class/hwmon/hwmon0/pwm1_enable",
      "/sys/class/hwmon/hwmon0/temp1_input",
      // powercap (RAPL counters)
      "/sys/class/powercap/intel-rapl:0/aperf",
      "/sys/class/powercap/intel-rapl:0/energy_uj",
      "/sys/class/powercap/intel-rapl:0/max_energy_range_uj",
      "/sys/class/powercap/intel-rapl:0/mperf",
      "/sys/class/powercap/intel-rapl:0/name",
      // thermal cooling device (idle injection)
      "/sys/class/thermal/cooling_device0/cur_state",
      "/sys/class/thermal/cooling_device0/max_state",
      "/sys/class/thermal/cooling_device0/type",
      // proc (utilization counters)
      "/proc/stat",
  };

  for (const std::string& path : expected) {
    EXPECT_TRUE(node.vfs().exists(path)) << "missing attribute: " << path;
  }

  // And the inventory is exactly this — no stray attributes accumulate.
  const auto sys = node.vfs().list("/sys");
  const auto proc = node.vfs().list("/proc");
  EXPECT_EQ(sys.size() + proc.size(), expected.size());
}

TEST(OsSurface, EveryAttributeReadableOrWritable) {
  NodeParams params;
  Cluster fleet{1, params};
  Node& node = fleet.node(0);
  node.sample_sensor();
  for (const std::string& path : node.vfs().list("/sys")) {
    const bool readable = node.vfs().read(path).has_value();
    // Write probes would mutate state; presence of a read handler is the
    // contract for everything we expose (write-only attributes don't exist
    // in this tree).
    EXPECT_TRUE(readable) << path << " is not readable";
  }
}

TEST(OsSurface, KernelUnitsConventionsHold) {
  NodeParams params;
  params.sensor.noise_sigma_degc = 0.0;
  Cluster fleet{1, params};
  Node& node = fleet.node(0);
  node.sample_sensor();
  // temp1_input: millidegrees; scaling_cur_freq: kHz; pwm1: 0-255.
  const long milli = node.vfs().read_long("/sys/class/hwmon/hwmon0/temp1_input").value();
  EXPECT_GT(milli, 20000);
  EXPECT_LT(milli, 100000);
  const long khz =
      node.vfs().read_long("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq").value();
  EXPECT_EQ(khz, 2400000);
  const long pwm = node.vfs().read_long("/sys/class/hwmon/hwmon0/pwm1").value();
  EXPECT_GE(pwm, 0);
  EXPECT_LE(pwm, 255);
}

}  // namespace
}  // namespace thermctl::cluster
