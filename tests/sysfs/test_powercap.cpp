#include "sysfs/powercap.hpp"

#include <gtest/gtest.h>

#include "hw/cpu_device.hpp"
#include "solo_devices.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {
namespace {

struct RaplRig {
  VirtualFs fs;
  hw::SoloCpu cpu;
  RaplDomain rapl{fs, "/sys/class/powercap", 0, cpu};
};

TEST(Rapl, NameAttribute) {
  RaplRig rig;
  EXPECT_EQ(rig.fs.read("/sys/class/powercap/intel-rapl:0/name").value(), "package-0");
}

TEST(Rapl, EnergyCounterAdvances) {
  RaplRig rig;
  EXPECT_EQ(rig.rapl.energy_uj(), 0u);
  rig.cpu.set_utilization(Utilization{1.0});
  rig.cpu.advance_counters(Seconds{2.0});
  const double joules = static_cast<double>(rig.rapl.energy_uj()) * 1e-6;
  EXPECT_NEAR(joules, rig.cpu.power().value() * 2.0, 0.1);
}

TEST(Rapl, AperfMperfExposed) {
  RaplRig rig;
  rig.cpu.set_utilization(Utilization{0.5});
  rig.cpu.advance_counters(Seconds{1.0});
  EXPECT_NEAR(static_cast<double>(rig.rapl.aperf()), 1200.0, 2.0);
  EXPECT_NEAR(static_cast<double>(rig.rapl.mperf()), 2400.0, 2.0);
}

TEST(Rapl, EnergyAttributeIsText) {
  RaplRig rig;
  rig.cpu.set_utilization(Utilization{1.0});
  rig.cpu.advance_counters(Seconds{1.0});
  const auto text = rig.fs.read("/sys/class/powercap/intel-rapl:0/energy_uj");
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(std::stoull(*text), rig.rapl.energy_uj());
}

TEST(Rapl, MonotoneNonDecreasing) {
  RaplRig rig;
  rig.cpu.set_utilization(Utilization{0.3});
  std::uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    rig.cpu.advance_counters(Seconds{0.05});
    const std::uint64_t e = rig.rapl.energy_uj();
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(Rapl, DestructorRemovesAttributes) {
  VirtualFs fs;
  hw::SoloCpu cpu;
  {
    RaplDomain rapl{fs, "/sys/class/powercap", 1, cpu};
    EXPECT_TRUE(fs.exists("/sys/class/powercap/intel-rapl:1/energy_uj"));
  }
  EXPECT_FALSE(fs.exists("/sys/class/powercap/intel-rapl:1/energy_uj"));
}

}  // namespace
}  // namespace thermctl::sysfs
