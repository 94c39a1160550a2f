#include "sysfs/ipmi.hpp"

#include <gtest/gtest.h>

namespace thermctl::sysfs {
namespace {

/// The state a test BMC reads and overrides: stands in for a node.
struct Board {
  double temp = 47.5;
  double rpm = 0.0;
  std::optional<DutyCycle> seen;
  bool called = false;
};

double read_temp(const void* b) { return static_cast<const Board*>(b)->temp; }
double read_rpm(const void* b) { return static_cast<const Board*>(b)->rpm; }

void record_override(void* b, std::optional<DutyCycle> duty) {
  auto* board = static_cast<Board*>(b);
  board->seen = duty;
  board->called = true;
}

constexpr BmcEndpoint::Sensor kTemp[1] = {
    {.name = "CPU Temp", .unit = "degrees C", .read = read_temp},
};
constexpr BmcEndpoint::Sensor kTempAndFan[2] = {
    {.name = "CPU Temp", .unit = "degrees C", .read = read_temp},
    {.name = "Fan1", .unit = "RPM", .read = read_rpm},
};
constexpr BmcEndpoint::Sensor kOne[1] = {
    {.name = "t", .unit = "C", .read = read_temp},
};

TEST(Bmc, SensorReadingRoundTrip) {
  Board board;
  BmcEndpoint bmc{kTemp, &board, nullptr};
  const std::uint8_t num = 1;
  SensorReading reading;
  ASSERT_EQ(bmc.get_sensor_reading(num, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 47.5);
  EXPECT_EQ(reading.unit, "degrees C");
  board.temp = 51.0;
  ASSERT_EQ(bmc.get_sensor_reading(num, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 51.0);
}

TEST(Bmc, InvalidSensorCompletionCode) {
  BmcEndpoint bmc{{}, nullptr, nullptr};
  SensorReading reading;
  EXPECT_EQ(bmc.get_sensor_reading(99, reading), IpmiCompletion::kInvalidSensor);
}

TEST(Bmc, SensorNumbersOutsideTheTableAreInvalid) {
  Board board;
  BmcEndpoint bmc{kTempAndFan, &board, nullptr};
  SensorReading reading;
  EXPECT_EQ(bmc.get_sensor_reading(0, reading), IpmiCompletion::kInvalidSensor);
  EXPECT_EQ(bmc.get_sensor_reading(3, reading), IpmiCompletion::kInvalidSensor);
  EXPECT_EQ(bmc.get_sensor_reading(2, reading), IpmiCompletion::kOk);
}

TEST(Bmc, ListSensors) {
  Board board;
  BmcEndpoint bmc{kTempAndFan, &board, nullptr};
  const auto sensors = bmc.list_sensors();
  ASSERT_EQ(sensors.size(), 2u);
  EXPECT_EQ(sensors[0].first, 1);
  EXPECT_EQ(sensors[0].second, "CPU Temp");
  EXPECT_EQ(sensors[1].first, 2);
  EXPECT_EQ(sensors[1].second, "Fan1");
}

TEST(Bmc, ReadingsFollowTheOwner) {
  // The table holds no values: each reading goes through the owner, so a
  // change to the owner's state shows in the next reading of every sensor.
  Board board;
  BmcEndpoint bmc{kTempAndFan, &board, nullptr};
  SensorReading reading;
  board.rpm = 1200.0;
  ASSERT_EQ(bmc.get_sensor_reading(2, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 1200.0);
  EXPECT_EQ(reading.unit, "RPM");
  board.rpm = 3400.0;
  board.temp = 60.25;
  ASSERT_EQ(bmc.get_sensor_reading(2, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 3400.0);
  ASSERT_EQ(bmc.get_sensor_reading(1, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 60.25);
  EXPECT_EQ(reading.unit, "degrees C");
}

TEST(Bmc, FanOverrideInvokesHandler) {
  Board board;
  BmcEndpoint bmc{{}, &board, record_override};
  ASSERT_EQ(bmc.set_fan_override(DutyCycle{80.0}), IpmiCompletion::kOk);
  EXPECT_TRUE(board.called);
  ASSERT_TRUE(board.seen.has_value());
  EXPECT_DOUBLE_EQ(board.seen->percent(), 80.0);
  ASSERT_EQ(bmc.set_fan_override(std::nullopt), IpmiCompletion::kOk);
  EXPECT_FALSE(board.seen.has_value());
}

TEST(Bmc, FanOverrideWithoutHandlerIsInvalidCommand) {
  BmcEndpoint bmc{{}, nullptr, nullptr};
  EXPECT_EQ(bmc.set_fan_override(DutyCycle{50.0}), IpmiCompletion::kInvalidCommand);
  Board board;
  BmcEndpoint sensors_only{kTemp, &board, nullptr};
  EXPECT_EQ(sensors_only.set_fan_override(DutyCycle{50.0}), IpmiCompletion::kInvalidCommand);
  EXPECT_EQ(sensors_only.set_fan_override(std::nullopt), IpmiCompletion::kInvalidCommand);
  EXPECT_FALSE(board.called);
}

TEST(Bmc, UnreachableEndpoint) {
  Board board;
  BmcEndpoint bmc{kOne, &board, nullptr};
  const std::uint8_t num = 1;
  bmc.set_reachable(false);
  SensorReading reading;
  EXPECT_EQ(bmc.get_sensor_reading(num, reading), IpmiCompletion::kDestinationUnavailable);
  bmc.set_reachable(true);
  EXPECT_EQ(bmc.get_sensor_reading(num, reading), IpmiCompletion::kOk);
}

TEST(Bmc, UnreachableEndpointRefusesOverrides) {
  Board board;
  BmcEndpoint bmc{kTemp, &board, record_override};
  bmc.set_reachable(false);
  SensorReading reading;
  EXPECT_EQ(bmc.get_sensor_reading(1, reading), IpmiCompletion::kDestinationUnavailable);
  // Unreachable outranks an invalid sensor number.
  EXPECT_EQ(bmc.get_sensor_reading(0, reading), IpmiCompletion::kDestinationUnavailable);
  EXPECT_EQ(bmc.set_fan_override(DutyCycle{70.0}), IpmiCompletion::kDestinationUnavailable);
  EXPECT_EQ(bmc.set_fan_override(std::nullopt), IpmiCompletion::kDestinationUnavailable);
  EXPECT_FALSE(board.called);
  bmc.set_reachable(true);
  EXPECT_EQ(bmc.set_fan_override(DutyCycle{70.0}), IpmiCompletion::kOk);
  EXPECT_TRUE(board.called);
}

TEST(IpmiNetwork, RoutesByNodeId) {
  Board board_a;
  Board board_b;
  board_a.temp = 1.0;
  board_b.temp = 2.0;
  BmcEndpoint a{kOne, &board_a, nullptr};
  BmcEndpoint b{kOne, &board_b, nullptr};
  IpmiNetwork net;
  net.attach(0, &a);
  net.attach(1, &b);
  SensorReading reading;
  ASSERT_EQ(net.get_sensor_reading(0, 1, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 1.0);
  ASSERT_EQ(net.get_sensor_reading(1, 1, reading), IpmiCompletion::kOk);
  EXPECT_DOUBLE_EQ(reading.value, 2.0);
}

TEST(IpmiNetwork, UnknownNodeUnavailable) {
  IpmiNetwork net;
  SensorReading reading;
  EXPECT_EQ(net.get_sensor_reading(9, 1, reading), IpmiCompletion::kDestinationUnavailable);
  EXPECT_EQ(net.set_fan_override(9, DutyCycle{10.0}), IpmiCompletion::kDestinationUnavailable);
}

TEST(IpmiNetwork, NodeListing) {
  BmcEndpoint a{{}, nullptr, nullptr};
  BmcEndpoint b{{}, nullptr, nullptr};
  IpmiNetwork net;
  net.attach(3, &a);
  net.attach(1, &b);
  const auto nodes = net.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 1);
  EXPECT_EQ(nodes[1], 3);
}

}  // namespace
}  // namespace thermctl::sysfs
