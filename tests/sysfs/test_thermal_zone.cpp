#include "sysfs/thermal_zone.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace thermctl::sysfs {
namespace {

struct ZoneRig {
  VirtualFs fs;
  double truth = 45.0;
  ThermalZone zone{fs, "/sys/class/thermal", 0, "x86_pkg_temp",
                   [this] { return Celsius{truth}; }};
};

TEST(ThermalZone, TypeAndTempAttributes) {
  ZoneRig rig;
  EXPECT_EQ(rig.fs.read("/sys/class/thermal/thermal_zone0/type").value(), "x86_pkg_temp");
  EXPECT_EQ(rig.fs.read_long("/sys/class/thermal/thermal_zone0/temp").value(), 45000);
  rig.truth = 51.25;
  EXPECT_EQ(rig.fs.read_long("/sys/class/thermal/thermal_zone0/temp").value(), 51250);
}

TEST(ThermalZone, TripPointAttributes) {
  ZoneRig rig;
  rig.zone.add_trip({Celsius{51.0}, TripType::kPassive});
  rig.zone.add_trip({Celsius{90.0}, TripType::kCritical});
  EXPECT_EQ(rig.fs.read_long("/sys/class/thermal/thermal_zone0/trip_point_0_temp").value(),
            51000);
  EXPECT_EQ(rig.fs.read("/sys/class/thermal/thermal_zone0/trip_point_0_type").value(),
            "passive");
  EXPECT_EQ(rig.fs.read("/sys/class/thermal/thermal_zone0/trip_point_1_type").value(),
            "critical");
}

TEST(ThermalZone, BindsCoolingDevices) {
  ZoneRig rig;
  FanCoolingAdapter fan{[](DutyCycle) { return true; }, DutyCycle{10.0}, DutyCycle{100.0}};
  rig.zone.bind(&fan);
  ASSERT_EQ(rig.zone.bound_devices().size(), 1u);
  EXPECT_EQ(rig.zone.bound_devices()[0]->cooling_type(), "fan");
}

TEST(ThermalZone, DestructorRemovesEverything) {
  VirtualFs fs;
  {
    ThermalZone zone{fs, "/sys/class/thermal", 1, "t", [] { return Celsius{0.0}; }};
    zone.add_trip({Celsius{50.0}, TripType::kPassive});
    EXPECT_TRUE(fs.exists("/sys/class/thermal/thermal_zone1/trip_point_0_temp"));
  }
  EXPECT_FALSE(fs.exists("/sys/class/thermal/thermal_zone1/temp"));
  EXPECT_FALSE(fs.exists("/sys/class/thermal/thermal_zone1/trip_point_0_temp"));
}

TEST(ThermalZone, TripHandleOutlivesLaterTripsAndFailsClosedWithTheZone) {
  VirtualFs fs;
  VirtualFs::Handle temp;
  {
    ThermalZone zone{fs, "/sys/class/thermal", 2, "t", [] { return Celsius{40.0}; }};
    zone.add_trip({Celsius{51.0}, TripType::kPassive});
    temp = fs.open("/sys/class/thermal/thermal_zone2/trip_point_0_temp");
    ASSERT_EQ(fs.read_long(temp), 51000);
    // No bound on trips, and adding one leaves the earlier ones in place.
    for (int k = 1; k < 100; ++k) {
      zone.add_trip({Celsius{60.0 + k}, TripType::kCritical});
      ASSERT_EQ(fs.read(temp), "51000") << "after trip " << k;
    }
    EXPECT_EQ(zone.trips().size(), 100u);
    EXPECT_EQ(fs.read("/sys/class/thermal/thermal_zone2/trip_point_99_temp"), "159000");
    EXPECT_EQ(fs.read("/sys/class/thermal/thermal_zone2/trip_point_99_type"), "critical");
  }
  EXPECT_FALSE(fs.read(temp).has_value());
  EXPECT_FALSE(fs.read_long(temp).has_value());
  EXPECT_FALSE(fs.write(temp, "1"));
  EXPECT_TRUE(fs.list("/sys/class/thermal").empty());
}

TEST(ThermalZone, ZoneDirectoryListsSorted) {
  ZoneRig rig;
  const std::string dir = "/sys/class/thermal/thermal_zone0/";
  for (int k = 0; k < 12; ++k) {
    rig.zone.add_trip({Celsius{50.0 + k}, TripType::kPassive});
  }
  const std::vector<std::string> listed = rig.fs.list(dir);
  ASSERT_EQ(listed.size(), 2u + 2u * 12u);
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
  EXPECT_EQ(listed[0], dir + "temp");
  EXPECT_EQ(listed[1], dir + "trip_point_0_temp");
  EXPECT_EQ(listed[2], dir + "trip_point_0_type");
  EXPECT_EQ(listed[3], dir + "trip_point_10_temp");  // "10" sorts before "1_"
  EXPECT_EQ(listed.back(), dir + "type");
}

TEST(FanCoolingAdapter, StateMapsLinearlyToDuty) {
  double last_duty = -1.0;
  FanCoolingAdapter fan{[&last_duty](DutyCycle d) {
                          last_duty = d.percent();
                          return true;
                        },
                        DutyCycle{10.0}, DutyCycle{100.0}, 9};
  EXPECT_EQ(fan.max_cooling_state(), 9);
  ASSERT_TRUE(fan.set_cooling_state(0));
  EXPECT_NEAR(last_duty, 10.0, 1e-9);
  ASSERT_TRUE(fan.set_cooling_state(9));
  EXPECT_NEAR(last_duty, 100.0, 1e-9);
  ASSERT_TRUE(fan.set_cooling_state(3));
  EXPECT_NEAR(last_duty, 40.0, 1e-9);
  EXPECT_EQ(fan.cooling_state(), 3);
}

TEST(FanCoolingAdapter, RejectsOutOfRange) {
  FanCoolingAdapter fan{[](DutyCycle) { return true; }, DutyCycle{10.0}, DutyCycle{100.0}, 5};
  EXPECT_FALSE(fan.set_cooling_state(-1));
  EXPECT_FALSE(fan.set_cooling_state(6));
}

TEST(FanCoolingAdapter, ActuatorFailureDoesNotAdvanceState) {
  FanCoolingAdapter fan{[](DutyCycle) { return false; }, DutyCycle{10.0}, DutyCycle{100.0}};
  EXPECT_FALSE(fan.set_cooling_state(2));
  EXPECT_EQ(fan.cooling_state(), 0);
}

TEST(DvfsCoolingAdapter, StateWalksLadder) {
  long last_khz = 0;
  DvfsCoolingAdapter dvfs{[&last_khz](long khz) {
                            last_khz = khz;
                            return true;
                          },
                          {2400000, 2200000, 2000000, 1800000, 1000000}};
  EXPECT_EQ(dvfs.max_cooling_state(), 4);
  ASSERT_TRUE(dvfs.set_cooling_state(0));
  EXPECT_EQ(last_khz, 2400000);
  ASSERT_TRUE(dvfs.set_cooling_state(4));
  EXPECT_EQ(last_khz, 1000000);
  EXPECT_EQ(dvfs.cooling_type(), "dvfs");
}

TEST(DvfsCoolingAdapterDeath, RejectsAscendingLadder) {
  EXPECT_DEATH(DvfsCoolingAdapter([](long) { return true; }, {1000000, 2400000}),
               "descending");
}

}  // namespace
}  // namespace thermctl::sysfs
