#include "cluster/node.hpp"

#include "common/assert.hpp"

namespace thermctl::cluster {

constexpr sysfs::BmcEndpoint::Sensor Node::kBmcSensors[3] = {
    {.name = "CPU Temp",
     .unit = "degrees C",
     .read = [](const void* n) { return static_cast<const Node*>(n)->sensor_reading().value(); }},
    {.name = "Fan1",
     .unit = "RPM",
     .read = [](const void* n) { return static_cast<const Node*>(n)->fan_.rpm().value(); }},
    {.name = "System Power",
     .unit = "Watts",
     .read = [](const void* n) { return static_cast<const Node*>(n)->wall_power().value(); }},
};

Node::Node(int id, const NodeParams& base, FleetState& fleet, std::size_t slot,
           std::uint64_t seed)
    : id_(id),
      fleet_(fleet),
      slot_(slot),
      cpu_(fleet.cpu(), slot),
      fan_(fleet.fan(), slot),
      chip_(fleet.chip(), slot),
      package_(fleet.batch(), slot),
      sensor_(fleet.sensor(), slot, Rng{seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(id) + 1}),
      meter_(fleet.meter(), slot),
      driver_(i2c_),
      // In-band plane: cpufreq, hwmon, powerclamp, RAPL and /proc/stat, one
      // mount per directory.
      cpufreq_(vfs_, "/sys/devices/system/cpu", 0, cpu_),
      hwmon_(vfs_, "/sys/class/hwmon", 0, sensor_, driver_),
      clamp_(vfs_, "/sys/class/thermal", 0, cpu_),
      rapl_(vfs_, "/sys/class/powercap", 0, cpu_),
      proc_stat_(vfs_, &row().busy_jiffies[slot], &row().total_jiffies[slot]),
      // Out-of-band plane: BMC sensors + fan override.
      bmc_(kBmcSensors, this, [](void* n, std::optional<DutyCycle> duty) {
        Node& node = *static_cast<Node*>(n);
        if (duty.has_value()) {
          node.row().bmc_override_duty[node.slot_] = duty->percent();
          node.row().bmc_override_set[node.slot_] = 1;
        } else {
          node.row().bmc_override_set[node.slot_] = 0;
        }
      }) {
  sample_schedule() =
      PeriodicSchedule{static_cast<std::int64_t>(base.sample_period.value() * 1e6)};
  i2c_.attach(sysfs::Adt7467Driver::kDefaultAddress, &chip_);

  // The fan driver must probe before the hwmon binding can drive PWM. The
  // probe leaves the chip in manual behaviour; restore the BIOS default
  // (automatic mode) — a controller that wants manual PWM claims it
  // explicitly through pwm1_enable.
  const auto probe = driver_.probe();
  THERMCTL_ASSERT(probe == sysfs::DriverStatus::kOk, "ADT7467 probe failed");
  const auto restore = driver_.set_automatic_mode();
  THERMCTL_ASSERT(restore == sysfs::DriverStatus::kOk, "ADT7467 mode restore failed");

  // Start the fan at the chip's automatic-curve output for the initial
  // (ambient) temperature, as the BIOS would have left it.
  chip_.set_measured_temperature(package_.die_temperature());
  fan_.set_duty(chip_.output_duty());
  fan_.settle();
  package_.set_airflow(fan_.airflow());
}

void Node::set_utilization(Utilization u) { row().util[slot_] = halted() ? 0.0 : u.fraction(); }

void Node::settle() {
  for (int pass = 0; pass < kSettlePasses; ++pass) {
    prepare_settle(pass);
    package_.settle();
  }
  finish_settle();
}

void Node::prepare_settle(int pass) {
  switch (pass) {
    case 0:
      cpu_.set_utilization(utilization());
      cpu_.set_die_temperature(package_.die_temperature());
      package_.set_cpu_power(cpu_.power());
      fan_.settle();
      package_.set_airflow(fan_.airflow());
      break;
    case 1:
      // One more pass so leakage (a function of the settled temperature) and
      // the chip's auto curve are consistent with the equilibrium.
      cpu_.set_die_temperature(package_.die_temperature());
      package_.set_cpu_power(cpu_.power());
      break;
    case 2:
      chip_.set_measured_temperature(package_.die_temperature());
      fan_.set_duty(row().bmc_override_set[slot_] != 0
                        ? DutyCycle{row().bmc_override_duty[slot_]}
                        : chip_.output_duty());
      fan_.settle();
      package_.set_airflow(fan_.airflow());
      break;
    default:
      THERMCTL_ASSERT(false, "settle pass out of range");
  }
}

void Node::finish_settle() {
  chip_.set_measured_temperature(package_.die_temperature());
  chip_.set_measured_rpm(fan_.rpm());
  sensor_.sample();
}

}  // namespace thermctl::cluster
