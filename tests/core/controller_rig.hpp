// Shared fixture for controller unit tests: a full sysfs plane (hwmon +
// cpufreq) over simulated devices, with a hand-controlled "true" temperature
// so tests can script exact thermal scenarios without running the RC model.
// The sensor is a row of the rig's own one-row group, or of a caller's group
// (a ControlBank test's fleet-like sensor array).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/i2c.hpp"
#include "hw/thermal_sensor.hpp"
#include "solo_devices.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::core::testing {

/// Scripted true temperatures (°C), one per row.
struct TruthRow {
  explicit TruthRow(std::size_t n) : scripted(n, 40.0) {}

  std::vector<double> scripted;
};

/// `n` noise-free sensor rows (deterministic tests), each measuring its own
/// scripted temperature.
struct ScriptedSensors : TruthRow, hw::SensorColumns {
  explicit ScriptedSensors(std::size_t n)
      : TruthRow(n),
        hw::SensorColumns(n, hw::SensorParams{.noise_sigma_degc = 0.0}, scripted.data()) {}
};

struct ControllerRig {
  sysfs::VirtualFs fs;
  hw::I2cBus bus;
  hw::SoloChip chip;
  hw::SoloCpu cpu;
  sysfs::Adt7467Driver driver{bus};
  ScriptedSensors own_sensor_row{1};
  double& truth;  // scripted die temperature: this rig's row of the group
  hw::ThermalSensor sensor;
  std::unique_ptr<sysfs::HwmonDevice> hwmon;
  std::unique_ptr<sysfs::CpufreqPolicy> cpufreq;

  ControllerRig() : ControllerRig(own_sensor_row, 0) {}

  /// A rig whose sensor is row `slot` of `sensor_rows`.
  ControllerRig(ScriptedSensors& sensor_rows, std::size_t slot)
      : truth(sensor_rows.scripted[slot]), sensor{sensor_rows, slot, Rng{1}} {
    bus.attach(sysfs::Adt7467Driver::kDefaultAddress, &chip);
    if (driver.probe() != sysfs::DriverStatus::kOk) {
      abort();
    }
    hwmon = std::make_unique<sysfs::HwmonDevice>(fs, "/sys/class/hwmon", 0, sensor, driver);
    cpufreq =
        std::make_unique<sysfs::CpufreqPolicy>(fs, "/sys/devices/system/cpu", 0, cpu);
  }

  /// Feeds `temp` to the sensor (one 250 ms sample) and ticks `controller`.
  template <typename Controller>
  void tick(Controller& controller, double temp, SimTime now) {
    truth = temp;
    sensor.sample();
    controller.on_sample(now);
    last_tick = now;
  }

  /// Runs `n` ticks at a fixed temperature, one sample period apart, from
  /// `start`.
  template <typename Controller>
  SimTime run_flat(Controller& controller, double temp, int n, SimTime start) {
    SimTime now = start;
    for (int i = 0; i < n; ++i) {
      now.advance_us(250000);
      tick(controller, temp, now);
    }
    return now;
  }

  /// Runs `n` ticks at a fixed temperature from the rig's last tick: the
  /// clock never runs backward, as a controller's decision log requires.
  template <typename Controller>
  SimTime run_flat(Controller& controller, double temp, int n) {
    return run_flat(controller, temp, n, last_tick);
  }

  SimTime last_tick;  // the time of the rig's latest tick
};

}  // namespace thermctl::core::testing
