// FleetState: every node's hot state lives in the fleet's column groups, one
// group per device, and the Node objects are views over them.
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/fleet_state.hpp"

namespace thermctl::cluster {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Runs `write` and checks that it changed `column` at `slot` and nowhere
/// else.
template <typename Column, typename Write>
void expect_writes_only_slot(const Column& column, std::size_t slot, Write write) {
  const Column before = column;
  write();
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (i == slot) {
      EXPECT_NE(column[i], before[i]) << "slot " << i << " unchanged";
    } else {
      EXPECT_EQ(column[i], before[i]) << "neighbour " << i << " touched";
    }
  }
}

TEST(FleetState, DeviceStateLivesInFleetArrays) {
  constexpr std::size_t kNodes = 3;
  NodeParams params;
  Cluster rack{kNodes, params};
  FleetState* fleet = rack.fleet();
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->size(), kNodes);

  // Writing through the Node API must be visible in the column and vice
  // versa — the device is a view, not a copy.
  expect_writes_only_slot(fleet->fan().duty_pct, 1,
                          [&] { rack.node(1).fan().set_duty(DutyCycle{63.0}); });
  EXPECT_EQ(fleet->fan().duty_pct[1], 63.0);
  fleet->fan().duty_pct[1] = 28.0;
  EXPECT_EQ(rack.node(1).fan().duty().percent(), 28.0);

  rack.node(2).sample_sensor();
  EXPECT_EQ(fleet->sensor().last_degc[2], rack.node(2).sensor_reading().value());

  // A cpufreq P-state write lands in the CPU group.
  expect_writes_only_slot(fleet->cpu().pstate, 1,
                          [&] { ASSERT_TRUE(rack.node(1).cpufreq().set_khz(1800000)); });
  EXPECT_EQ(fleet->cpu().pstate[1], rack.node(1).cpu().pstate_index());
  EXPECT_EQ(rack.node(1).cpu().frequency().value(), 1.8);

  // The chip's tach latch: 5.4 MHz / 2700 RPM.
  expect_writes_only_slot(fleet->chip().tach1, 2,
                          [&] { rack.node(2).fan_chip().set_measured_rpm(Rpm{2700.0}); });
  EXPECT_EQ(fleet->chip().tach1[2], 2000);

  // The meter's energy after a step of node 1 alone.
  expect_writes_only_slot(fleet->meter().energy_j, 1,
                          [&] { rack.step_range(1, 2, Seconds{0.05}); });
  EXPECT_EQ(fleet->meter().energy_j[1], rack.node(1).meter().energy().value());

  // An injector factor after set_injection.
  hw::IdleInjector& injector = rack.node(0).cpu().idle_injector();
  expect_writes_only_slot(fleet->cpu().injector.dynamic_factor, 0,
                          [&] { injector.set_injection(0.5, 2); });
  EXPECT_EQ(fleet->cpu().injector.dynamic_factor[0], injector.dynamic_power_factor());
  EXPECT_EQ(fleet->cpu().injector.generation[0], injector.generation());

  // The package's airflow memo.
  expect_writes_only_slot(fleet->batch().cfm, 2,
                          [&] { rack.node(2).package().set_airflow(Cfm{12.5}); });
  EXPECT_EQ(rack.node(2).package().airflow().value(), 12.5);

  // The package group is the package's temperature storage.
  EXPECT_EQ(bits(fleet->batch().t_die[0]), bits(rack.node(0).die_temperature().value()));
  expect_writes_only_slot(fleet->batch().p_die, 0,
                          [&] { rack.node(0).package().set_cpu_power(Watts{47.0}); });
  EXPECT_EQ(fleet->batch().p_die[0], 47.0);
}

TEST(FleetState, FreshFleetHoldsDevicePowerOnValues) {
  // Before any device is built on it, every row already holds its device's
  // power-on state: the groups define it, the devices only view it.
  NodeParams params;
  FleetState fleet{params, 4};
  const double pin_pct = hw::Adt7467::reg_to_duty(hw::Adt7467::kPowerOnPwm1Min).percent();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE(i);
    const hw::CpuColumns& cpu = fleet.cpu();
    EXPECT_EQ(cpu.pstate[i], 0u);
    EXPECT_EQ(cpu.utilization[i], 0.0);
    EXPECT_EQ(cpu.die_temperature[i], 40.0);
    EXPECT_EQ(cpu.power_valid[i], 0);
    EXPECT_EQ(cpu.throttled[i], 0);
    EXPECT_EQ(cpu.transitions[i], 0u);
    EXPECT_EQ(cpu.energy_uj[i], 0u);
    EXPECT_EQ(cpu.injector.dynamic_factor[i], 1.0);
    EXPECT_EQ(cpu.injector.leakage_factor[i], 1.0);
    EXPECT_EQ(cpu.injector.throughput_factor[i], 1.0);
    EXPECT_EQ(cpu.injector.generation[i], 0u);
    EXPECT_EQ(fleet.chip().temp_remote1[i], 25);
    EXPECT_EQ(fleet.chip().tach1[i], 0xFFFF);
    EXPECT_EQ(fleet.chip().last_measured_rpm[i], -1.0);
    EXPECT_EQ(fleet.chip().output_duty_pct[i], pin_pct);
    EXPECT_EQ(fleet.fan().duty_pct[i], 0.0);
    EXPECT_EQ(fleet.fan().rpm[i], 0.0);
    EXPECT_EQ(fleet.fan().stuck[i], 0);
    EXPECT_EQ(fleet.sensor().last_degc[i], 0.0);
    EXPECT_EQ(fleet.meter().energy_j[i], 0.0);
    EXPECT_EQ(fleet.meter().elapsed_s[i], 0.0);
    const thermal::PackageColumns& package = fleet.batch();
    EXPECT_EQ(package.t_die[i], params.package.ambient.value());
    EXPECT_EQ(package.t_hs[i], params.package.ambient.value());
    EXPECT_EQ(package.t_amb[i], params.package.ambient.value());
    EXPECT_EQ(package.p_die[i], 0.0);
    EXPECT_EQ(package.set[i], 0);
  }
  // A chip built on a fresh row re-derives the same pin value at power-on.
  hw::Adt7467 chip{fleet.chip(), 1};
  EXPECT_EQ(chip.output_duty().percent(), pin_pct);
  EXPECT_EQ(fleet.chip().output_duty_pct[1], pin_pct);
}

TEST(FleetState, DeviceConstantsLiveOncePerFleet) {
  // Every node's devices read their constants from the one copy their
  // column group holds; no node carries its own.
  Cluster rack{4, NodeParams{}};
  Node& first = rack.node(0);
  for (std::size_t i = 1; i < rack.size(); ++i) {
    SCOPED_TRACE(i);
    Node& node = rack.node(i);
    EXPECT_EQ(&node.cpu().params(), &first.cpu().params());
    EXPECT_EQ(&node.fan().params(), &first.fan().params());
    EXPECT_EQ(&node.meter().params(), &first.meter().params());
    EXPECT_EQ(&node.cpu().idle_injector().cstates(), &first.cpu().idle_injector().cstates());
  }
}

TEST(FleetState, SensorsShareOneParamsCopy) {
  // A sensor is a (group, slot) view: its constants are the group's one
  // copy, and it measures the package group's die-temperature row.
  static_assert(sizeof(hw::ThermalSensor) <= 2 * sizeof(void*));
  Cluster rack{2, NodeParams{}};
  FleetState* fleet = rack.fleet();
  EXPECT_EQ(&rack.node(0).sensor().params(), &rack.node(1).sensor().params());
  EXPECT_EQ(&rack.node(0).sensor().params(), &fleet->sensor().params);
  EXPECT_EQ(fleet->sensor().truth, fleet->batch().t_die.data());
}

TEST(FleetState, MemoryFootprintIsFlatPerNode) {
  NodeParams params;
  FleetState small{params, 64};
  FleetState large{params, 4096};
  const double small_per_node = static_cast<double>(small.memory_bytes()) / 64.0;
  const double large_per_node = static_cast<double>(large.memory_bytes()) / 4096.0;
  // Shared structure amortizes: per-node bytes must not grow with the fleet,
  // and the hot state is on the order of a hundred bytes, not kilobytes.
  EXPECT_LE(large_per_node, small_per_node * 1.1);
  EXPECT_LT(large_per_node, 512.0);

  // Every sensor column is counted: doubling their capacity grows the total
  // by exactly the added rows.
  hw::SensorColumns& sensor = small.sensor();
  const std::size_t before = small.memory_bytes();
  sensor.last_degc.reserve(128);
  sensor.rng.reserve(128);
  sensor.stuck.reserve(128);
  sensor.has_reading.reserve(128);
  EXPECT_EQ(small.memory_bytes() - before,
            64 * (sizeof(double) + sizeof(Rng) + 2 * sizeof(std::uint8_t)));
}

/// `group`'s column list names its columns in declaration order and covers
/// the group from the first of them to its end, so a column declared but
/// left out of the list leaves a gap or a tail.
template <typename Group>
::testing::AssertionResult lists_every_column(const Group& group) {
  const auto columns = Group::columns(group);
  const auto* first = reinterpret_cast<const char*>(&std::get<0>(columns));
  const auto* end = reinterpret_cast<const char*>(&group) + sizeof(Group);
  constexpr std::size_t kColumnSize = sizeof(std::vector<char>);
  std::size_t k = 0;
  bool in_order = true;
  std::apply(
      [&](const auto&... column) {
        ((in_order = in_order &&
                     reinterpret_cast<const char*>(&column) == first + kColumnSize * k++),
         ...);
      },
      columns);
  if (!in_order) {
    return ::testing::AssertionFailure() << "the list skips or reorders a column";
  }
  if (static_cast<std::size_t>(end - first) != kColumnSize * k) {
    return ::testing::AssertionFailure()
           << (end - first) << " bytes of columns, " << k << " listed";
  }
  return ::testing::AssertionSuccess();
}

/// Reserves `rows` rows in every column `group` lists and returns the bytes
/// one row of them takes.
template <typename Group>
std::size_t reserve_listed(Group& group, std::size_t rows) {
  return std::apply(
      [rows](auto&... column) {
        (column.reserve(rows), ...);
        return (std::size_t{0} + ... + sizeof(column[0]));
      },
      Group::columns(group));
}

TEST(FleetState, EveryColumnIsListedAndCounted) {
  NodeParams params;
  FleetState fleet{params, 64};
  EXPECT_TRUE(lists_every_column(fleet.cpu()));
  EXPECT_TRUE(lists_every_column(fleet.cpu().injector));
  EXPECT_TRUE(lists_every_column(fleet.fan()));
  EXPECT_TRUE(lists_every_column(fleet.chip()));
  EXPECT_TRUE(lists_every_column(fleet.meter()));
  EXPECT_TRUE(lists_every_column(fleet.sensor()));
  EXPECT_TRUE(lists_every_column(fleet.batch()));
  EXPECT_TRUE(lists_every_column(fleet.node()));

  // memory_bytes() counts every listed column of every group: doubling
  // their capacity grows the total by exactly the added rows.
  const std::size_t before = fleet.memory_bytes();
  const std::size_t row_bytes =
      reserve_listed(fleet.cpu(), 128) + reserve_listed(fleet.cpu().injector, 128) +
      reserve_listed(fleet.fan(), 128) + reserve_listed(fleet.chip(), 128) +
      reserve_listed(fleet.meter(), 128) + reserve_listed(fleet.sensor(), 128) +
      reserve_listed(fleet.batch(), 128) + reserve_listed(fleet.node(), 128);
  EXPECT_EQ(fleet.memory_bytes() - before, 64 * row_bytes);
}

}  // namespace
}  // namespace thermctl::cluster
