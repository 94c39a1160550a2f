// OS-surface contract test: the complete sysfs tree a node exposes.
//
// Controllers, operator tooling and the thermctld example all navigate this
// tree by path; this test pins the full attribute inventory so an accidental
// rename or dropped attribute fails loudly. It is the simulation's
// equivalent of a kernel ABI test.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// Every byte the surface serves, pinned on a settled and stepped node: the
// text of each attribute, its read_long, each write's verdict and the text it
// leaves behind, the BMC's sensor repository and the IPMI roster. Changes to
// how the tree is stored must leave all of it as it is.
TEST(OsSurface, EveryAttributeByteForByte) {
  NodeParams params;
  Cluster fleet{3, params};
  Node& node = fleet.node(0);
  node.set_utilization(Utilization{0.6});
  fleet.settle_all();
  for (int i = 0; i < 40; ++i) {
    fleet.step(Seconds{0.05});
    if (i % 5 == 4) {
      node.sample_sensor();
    }
  }
  ASSERT_TRUE(node.cpufreq().set_khz(2000000));
  fleet.step(Seconds{0.05});
  sysfs::VirtualFs& fs = node.vfs();

  struct Expected {
    std::string path;
    std::string text;
    std::optional<long> value;  // read_long
  };
  const std::string cpufreq = "/sys/devices/system/cpu/cpu0/cpufreq/";
  const std::string hwmon = "/sys/class/hwmon/hwmon0/";
  const std::string rapl = "/sys/class/powercap/intel-rapl:0/";
  const std::string clamp = "/sys/class/thermal/cooling_device0/";
  const std::vector<Expected> expected{
      {hwmon + "fan1_input", "1786", 1786},
      {hwmon + "name", "adt7467", std::nullopt},
      {hwmon + "pwm1", "83", 83},
      {hwmon + "pwm1_enable", "1", 1},
      {hwmon + "temp1_input", "49500", 49500},
      {rapl + "aperf", "2940", 2940},
      {rapl + "energy_uj", "95518729", 95518729},
      {rapl + "max_energy_range_uj", "65532610987", 65532610987L},
      {rapl + "mperf", "4920", 4920},
      {rapl + "name", "package-0", std::nullopt},
      {clamp + "cur_state", "0", 0},
      {clamp + "max_state", "50", 50},
      {clamp + "type", "intel_powerclamp", std::nullopt},
      {cpufreq + "cpuinfo_max_freq", "2400000", 2400000},
      {cpufreq + "cpuinfo_min_freq", "1000000", 1000000},
      {cpufreq + "scaling_available_frequencies", "2400000 2200000 2000000 1800000 1000000",
       2400000},
      {cpufreq + "scaling_cur_freq", "2000000", 2000000},
      {cpufreq + "scaling_governor", "userspace", std::nullopt},
      {cpufreq + "scaling_setspeed", "2000000", 2000000},
      {cpufreq + "stats/total_trans", "1", 1},
      {"/proc/stat", "cpu  123 0 0 82 0 0 0\n", std::nullopt},
  };
  std::vector<std::string> listed = fs.list("/sys");
  for (const std::string& path : fs.list("/proc")) {
    listed.push_back(path);
  }
  ASSERT_EQ(listed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Expected& e = expected[i];
    EXPECT_EQ(listed[i], e.path);
    EXPECT_EQ(fs.read(e.path), std::optional<std::string>{e.text}) << e.path;
    EXPECT_EQ(fs.read_long(e.path), e.value) << e.path;
    EXPECT_EQ(fs.read(fs.open(e.path)), std::optional<std::string>{e.text}) << e.path;
    EXPECT_EQ(fs.read_long(fs.open(e.path)), e.value) << e.path;
  }

  // Out-of-band plane, read before any write moves the node.
  const std::vector<std::pair<std::uint8_t, std::string>> sensors{
      {1, "CPU Temp"}, {2, "Fan1"}, {3, "System Power"}};
  EXPECT_EQ(node.bmc().list_sensors(), sensors);
  const std::vector<std::pair<double, std::string>> readings{
      {0x1.8cp+5, "degrees C"}, {0x1.be839e1260819p+10, "RPM"}, {0x1.3ep+6, "Watts"}};
  for (std::size_t i = 0; i < readings.size(); ++i) {
    sysfs::SensorReading r;
    ASSERT_EQ(node.bmc().get_sensor_reading(sensors[i].first, r), sysfs::IpmiCompletion::kOk);
    EXPECT_EQ(r.value, readings[i].first) << sensors[i].second;
    EXPECT_EQ(r.unit, readings[i].second);
  }
  sysfs::SensorReading r;
  EXPECT_EQ(node.bmc().get_sensor_reading(4, r), sysfs::IpmiCompletion::kInvalidSensor);
  EXPECT_EQ(fleet.ipmi().nodes(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fleet.ipmi().get_sensor_reading(2, 1, r), sysfs::IpmiCompletion::kOk);
  EXPECT_EQ(r.unit, "degrees C");
  EXPECT_EQ(fleet.ipmi().get_sensor_reading(3, 1, r),
            sysfs::IpmiCompletion::kDestinationUnavailable);

  // Writes: each verdict, then the text it leaves.
  for (const Expected& e : expected) {
    if (e.path != hwmon + "pwm1" && e.path != hwmon + "pwm1_enable" &&
        e.path != clamp + "cur_state" && e.path != cpufreq + "scaling_setspeed") {
      EXPECT_FALSE(fs.write(e.path, "1")) << e.path << " is read-only";
      EXPECT_FALSE(fs.write_long(fs.open(e.path), 1)) << e.path << " is read-only";
    }
  }
  struct Write {
    std::string path;
    std::string value;
    bool accepted;
    std::string reread;  // path whose text is checked after the write
    std::string text;
  };
  const std::vector<Write> writes{
      // The chip boots in automatic mode: pwm1 rejects every duty until
      // pwm1_enable claims manual control.
      {hwmon + "pwm1", "0", false, hwmon + "pwm1", "83"},
      {hwmon + "pwm1", "255", false, hwmon + "pwm1", "83"},
      {hwmon + "pwm1_enable", "x", false, hwmon + "pwm1_enable", "1"},
      {hwmon + "pwm1_enable", "2", true, hwmon + "pwm1", "83"},
      {hwmon + "pwm1_enable", "1", true, hwmon + "pwm1", "83"},
      {hwmon + "pwm1", "0", true, hwmon + "pwm1", "0"},
      {hwmon + "pwm1", "255", true, hwmon + "pwm1", "255"},
      {hwmon + "pwm1", "256", false, hwmon + "pwm1", "255"},
      {hwmon + "pwm1", "-1", false, hwmon + "pwm1", "255"},
      {hwmon + "pwm1", "fast", false, hwmon + "pwm1", "255"},
      {cpufreq + "scaling_setspeed", "0", false, cpufreq + "scaling_cur_freq", "2000000"},
      {cpufreq + "scaling_setspeed", "-5", false, cpufreq + "stats/total_trans", "1"},
      {cpufreq + "scaling_setspeed", "abc", false, cpufreq + "scaling_cur_freq", "2000000"},
      {cpufreq + "scaling_setspeed", "1800000", true, cpufreq + "scaling_cur_freq", "1800000"},
      {cpufreq + "scaling_setspeed", "1800000", true, cpufreq + "stats/total_trans", "2"},
      {clamp + "cur_state", "-1", false, clamp + "cur_state", "0"},
      {clamp + "cur_state", "51", false, clamp + "cur_state", "0"},
      {clamp + "cur_state", "max", false, clamp + "cur_state", "0"},
      {clamp + "cur_state", "50", true, clamp + "cur_state", "50"},
      {clamp + "cur_state", "25", true, clamp + "cur_state", "25"},
      {clamp + "cur_state", "0", true, clamp + "cur_state", "0"},
  };
  for (const Write& w : writes) {
    EXPECT_EQ(fs.write(w.path, w.value), w.accepted) << w.path << " <- " << w.value;
    EXPECT_EQ(fs.read(w.reread), std::optional<std::string>{w.text})
        << w.reread << " after " << w.path << " <- " << w.value;
  }
  // The same verdicts through cached handles and the typed surface.
  const sysfs::VirtualFs::Handle pwm = fs.open(hwmon + "pwm1");
  EXPECT_TRUE(fs.write_long(pwm, 128));
  EXPECT_EQ(fs.read_long(pwm), 128);
  EXPECT_FALSE(fs.write_long(pwm, 256));
  EXPECT_FALSE(fs.write_long(pwm, -1));
  EXPECT_EQ(fs.read(pwm), std::optional<std::string>{"128"});
  EXPECT_EQ(node.powerclamp().max_state(), 50);
  EXPECT_TRUE(node.powerclamp().set_cur_state(50));
  EXPECT_FALSE(node.powerclamp().set_cur_state(51));
  EXPECT_EQ(node.powerclamp().cur_state(), 50);
  EXPECT_FALSE(node.cpufreq().set_khz(0));
  EXPECT_EQ(node.cpufreq().cur_khz(), 1800000);
  EXPECT_EQ(node.rapl().aperf(), 2940u);
  EXPECT_EQ(node.rapl().mperf(), 4920u);
  EXPECT_EQ(node.rapl().energy_uj(), 95518729u);
}

}  // namespace
}  // namespace thermctl::cluster
