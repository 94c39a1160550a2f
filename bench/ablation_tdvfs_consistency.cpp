// Ablation: tDVFS trigger consistency (the "consistently above threshold"
// requirement of §4.3).
//
// With consistency_rounds = 1 the daemon reacts to single hot rounds —
// transient spikes cause frequency changes the paper's design explicitly
// avoids (Fig. 8's red circle). Larger values delay the legitimate response.
// The bench measures both: transitions under a spiky-but-safe trace, and
// response delay under a genuinely hot plateau.
#include "bench_util.hpp"
#include "core/tdvfs.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/i2c.hpp"
#include "hw/thermal_sensor.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/vfs.hpp"

namespace {

using namespace thermctl;

struct Rig {
  sysfs::VirtualFs fs;
  hw::I2cBus bus;
  hw::ChipColumns chip_row{1};
  hw::CpuColumns cpu_row{1, {}};
  double truth = 45.0;
  hw::SensorColumns sensor_row{1, hw::SensorParams{.noise_sigma_degc = 0.0}, &truth};
  hw::Adt7467 chip{chip_row, 0};
  hw::CpuDevice cpu{cpu_row, 0};
  sysfs::Adt7467Driver driver{bus};
  hw::ThermalSensor sensor{sensor_row, 0, Rng{1}};
  std::unique_ptr<sysfs::HwmonDevice> hwmon;
  std::unique_ptr<sysfs::CpufreqPolicy> cpufreq;

  Rig() {
    bus.attach(sysfs::Adt7467Driver::kDefaultAddress, &chip);
    (void)driver.probe();
    hwmon = std::make_unique<sysfs::HwmonDevice>(fs, "/sys/class/hwmon", 0, sensor, driver);
    cpufreq = std::make_unique<sysfs::CpufreqPolicy>(fs, "/sys/devices/system/cpu", 0, cpu);
  }
};

}  // namespace

int main() {
  using namespace thermctl::core;
  namespace tb = thermctl::bench;

  tb::banner("Ablation", "tDVFS consistency rounds: spike immunity vs response delay");

  struct Row {
    int rounds;
    std::uint64_t spike_transitions;
    double plateau_delay_s;
  };
  std::vector<Row> rows;

  for (int rounds : {1, 2, 3, 6}) {
    // Scenario A: 49 degC baseline with one-round 53 degC spikes every 10 s.
    Rig rig_a;
    TdvfsConfig cfg;
    cfg.pp = PolicyParam{50};
    cfg.consistency_rounds = rounds;
    TdvfsDaemon daemon_a{*rig_a.hwmon, *rig_a.cpufreq, cfg};
    SimTime now;
    for (int i = 0; i < 1200; ++i) {  // 5 min at 4 Hz
      now.advance_us(250000);
      const int second = i / 4;
      rig_a.truth = (second % 10 == 0) ? 53.0 : 49.0;
      rig_a.sensor.sample();
      daemon_a.on_sample(now);
    }
    const std::uint64_t spikes = rig_a.cpu.transition_count();

    // Scenario B: sustained 54 degC plateau; time to first down-scale.
    Rig rig_b;
    TdvfsDaemon daemon_b{*rig_b.hwmon, *rig_b.cpufreq, cfg};
    SimTime now_b;
    double delay = -1.0;
    for (int i = 0; i < 400; ++i) {
      now_b.advance_us(250000);
      rig_b.truth = 54.0;
      rig_b.sensor.sample();
      daemon_b.on_sample(now_b);
      if (!daemon_b.events().empty()) {
        delay = daemon_b.events().front().time_s;
        break;
      }
    }
    rows.push_back(Row{rounds, spikes, delay});
  }

  TextTable table{{"consistency rounds", "transitions under spikes", "plateau response (s)"}};
  for (const Row& row : rows) {
    table.add_row(std::to_string(row.rounds),
                  {static_cast<double>(row.spike_transitions), row.plateau_delay_s}, 2);
  }
  std::printf("%s", table.render().c_str());
  tb::note("paper behaviour: no response to short-term spikes, prompt response to\n"
           "sustained heat; the default of 3 rounds delivers both");

  tb::shape_check("1-round trigger thrashes on spikes", rows[0].spike_transitions >= 4);
  tb::shape_check("3-round trigger ignores spikes entirely", rows[2].spike_transitions == 0);
  tb::shape_check("3-round plateau response within 5 s",
                  rows[2].plateau_delay_s > 0.0 && rows[2].plateau_delay_s <= 5.0);
  tb::shape_check("response delay grows with consistency",
                  rows[3].plateau_delay_s > rows[0].plateau_delay_s);
  return 0;
}
