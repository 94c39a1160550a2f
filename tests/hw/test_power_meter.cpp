#include "hw/power_meter.hpp"

#include <gtest/gtest.h>

#include "solo_devices.hpp"

namespace thermctl::hw {
namespace {

// The energy integral is advanced by FleetSweep; its integration tests run
// on a fleet of one (NodeMeter.* in tests/cluster/test_node.cpp).

TEST(PowerMeter, ReadIncludesBaseLoadAndPsuLoss) {
  PowerMeterParams params;
  params.base_load = Watts{42.0};
  params.psu_efficiency = 0.84;
  SoloMeter meter{params};
  // AC = (42 + 42) / 0.84 = 100 W exactly.
  EXPECT_NEAR(meter.read_with(Watts{42.0}).value(), 100.0, 0.11);
}

TEST(PowerMeter, ResolutionRounding) {
  PowerMeterParams params;
  params.base_load = Watts{0.0};
  params.psu_efficiency = 1.0;
  params.resolution_watts = 0.5;
  SoloMeter meter{params};
  EXPECT_DOUBLE_EQ(meter.read_with(Watts{10.26}).value(), 10.5);
}

TEST(PowerMeter, AverageIsEnergyOverElapsedTimeOfItsRow) {
  SoloMeter meter;
  EXPECT_DOUBLE_EQ(meter.average_power().value(), 0.0);  // nothing integrated yet
  meter.rows.energy_j[0] = 1000.0;
  meter.rows.elapsed_s[0] = 10.0;
  EXPECT_DOUBLE_EQ(meter.energy().value(), 1000.0);
  EXPECT_DOUBLE_EQ(meter.average_power().value(), 100.0);
}

TEST(PowerMeterDeath, RejectsBadEfficiency) {
  PowerMeterParams params;
  params.psu_efficiency = 0.0;
  EXPECT_DEATH(SoloMeter{params}, "efficiency");
}

}  // namespace
}  // namespace thermctl::hw
