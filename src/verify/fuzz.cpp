#include "verify/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/coordinator/coordinator.hpp"
#include "cluster/engine.hpp"
#include "core/decision_log.hpp"
#include "core/pid_fan.hpp"
#include "core/predictive_fan.hpp"
#include "core/step_wise.hpp"
#include "core/unified_controller.hpp"
#include "workload/synthetic.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/i2c.hpp"
#include "hw/thermal_sensor.hpp"
#include "sysfs/adt7467_driver.hpp"
#include "sysfs/cpufreq.hpp"
#include "sysfs/hwmon.hpp"
#include "sysfs/powercap.hpp"
#include "sysfs/thermal_zone.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::verify {

AdversarialStream::AdversarialStream(std::uint64_t seed, bool allow_nan)
    : rng_(seed), allow_nan_(allow_nan) {
  start_segment();
}

void AdversarialStream::start_segment() {
  kind_ = static_cast<int>(rng_.below(6));
  remaining_ = 5 + static_cast<int>(rng_.below(56));
  switch (kind_) {
    case 0:  // flat
      base_ = rng_.uniform(20.0, 90.0);
      break;
    case 1:  // ramp
      slope_ = rng_.uniform(0.2, 3.0) * (rng_.uniform() < 0.5 ? -1.0 : 1.0);
      break;
    case 2:  // spike train around the current base
      spike_ = rng_.uniform(10.0, 40.0);
      spike_phase_ = false;
      break;
    case 3:  // stuck-at: hold whatever the stream last produced
      break;
    case 4:  // NaN burst (or extreme spikes on integer-converting paths)
      spike_ = rng_.uniform(1.0e4, 5.0e5);
      break;
    case 5:  // step discontinuity, then flat
      base_ += rng_.uniform(5.0, 30.0) * (rng_.uniform() < 0.5 ? -1.0 : 1.0);
      break;
    default:
      break;
  }
}

double AdversarialStream::next() {
  if (remaining_ <= 0) {
    start_segment();
  }
  --remaining_;
  switch (kind_) {
    case 0:
    case 5:
      value_ = base_;
      break;
    case 1:
      base_ += slope_;
      // Keep the ramp bounded so long runs can't walk to infinity.
      if (base_ < -200.0 || base_ > 300.0) {
        slope_ = -slope_;
      }
      value_ = base_;
      break;
    case 2:
      spike_phase_ = !spike_phase_;
      value_ = spike_phase_ ? base_ + spike_ : base_ - spike_;
      break;
    case 3:
      break;  // stuck: value_ unchanged
    case 4:
      if (allow_nan_) {
        value_ = std::numeric_limits<double>::quiet_NaN();
      } else {
        spike_phase_ = !spike_phase_;
        value_ = spike_phase_ ? spike_ : -spike_;
      }
      break;
    default:
      break;
  }
  return value_;
}

std::string FuzzReport::to_string() const {
  std::ostringstream out;
  out << "fuzz " << target << " seed=" << seed << " ticks=" << ticks << ": "
      << invariants.to_string();
  return out.str();
}

void FuzzReport::merge(const FuzzReport& other) {
  target = target.empty() ? other.target : target + "+" + other.target;
  ticks += other.ticks;
  invariants.merge(other.invariants);
}

namespace {

/// Self-contained controller rig: the full sysfs plane (hwmon + cpufreq +
/// powercap) over simulated devices with a scripted, noise-free "truth"
/// temperature, mirroring the unit tests' fixture.
struct FuzzRig {
  sysfs::VirtualFs fs;
  hw::I2cBus bus;
  hw::ChipColumns chip_row{1};
  hw::CpuColumns cpu_row{1, {}};
  double truth = 45.0;
  // Noise-free: the scripted stream IS the scenario.
  hw::SensorColumns sensor_row{1, hw::SensorParams{.noise_sigma_degc = 0.0}, &truth};
  hw::Adt7467 chip{chip_row, 0};
  hw::CpuDevice cpu{cpu_row, 0};
  sysfs::Adt7467Driver driver{bus};
  hw::ThermalSensor sensor{sensor_row, 0, Rng{1}};
  std::unique_ptr<sysfs::HwmonDevice> hwmon;
  std::unique_ptr<sysfs::CpufreqPolicy> cpufreq;
  std::unique_ptr<sysfs::RaplDomain> rapl;

  FuzzRig() {
    bus.attach(sysfs::Adt7467Driver::kDefaultAddress, &chip);
    if (driver.probe() != sysfs::DriverStatus::kOk) {
      abort();
    }
    hwmon = std::make_unique<sysfs::HwmonDevice>(fs, "/sys/class/hwmon", 0, sensor, driver);
    cpufreq = std::make_unique<sysfs::CpufreqPolicy>(fs, "/sys/devices/system/cpu", 0, cpu);
    rapl = std::make_unique<sysfs::RaplDomain>(fs, "/sys/class/powercap", 0, cpu);
  }

  /// One 250 ms sample of `temp`, then tick `controller`.
  template <typename Controller>
  void tick(Controller& controller, double temp, SimTime now) {
    truth = temp;
    sensor.sample();
    controller.on_sample(now);
  }
};

core::PolicyParam random_pp(Rng& rng) {
  return core::PolicyParam{static_cast<int>(1 + rng.below(100))};
}

void check_duty_bounds(const char* who, double duty_pct, double min_pct, double max_pct,
                       double t, InvariantReport& report) {
  ++report.checks;
  if (duty_pct < min_pct - 1e-9 || duty_pct > max_pct + 1e-9) {
    std::ostringstream msg;
    msg << who << " duty " << duty_pct << "% outside [" << min_pct << ", " << max_pct << "]";
    report.add(InvariantKind::kActuationRange, t, 0, msg.str(), 64);
  }
}

/// Short health thresholds, so an adversarial stream's flat, stuck and
/// extreme segments confirm sensor failures and recoveries.
core::SensorHealthConfig quick_health() {
  core::SensorHealthConfig health;
  health.stuck_samples = 6;
  health.reject_samples = 3;
  health.recovery_samples = 4;
  return health;
}

/// Seeded i2c bus-fault episodes: a healthy tick starts one with
/// probability 1/100, and it lasts 1 to 20 ticks.
struct BusFaults {
  Rng rng;
  int left = 0;

  void step(hw::I2cBus& bus) {
    if (left == 0 && rng.below(100) == 0) {
      left = 1 + static_cast<int>(rng.below(20));
    }
    if ((left > 0) != bus.faulted()) {
      left > 0 ? bus.inject_bus_fault() : bus.clear_bus_fault();
    }
    left = std::max(0, left - 1);
  }
};

/// Fail-safe cooling: from the tick after entry on, a healthy bus has
/// carried the most effective duty to the chip. `was_failsafe` carries the
/// previous tick's state.
void check_failsafe_duty(const core::FanTechnique& fan, const FuzzRig& rig, bool& was_failsafe,
                         double t, InvariantReport& report) {
  if (was_failsafe && fan.in_failsafe() && !rig.bus.faulted()) {
    ++report.checks;
    if (std::abs(rig.chip.output_duty().percent() - fan.array().most_effective()) > 0.5) {
      report.add(InvariantKind::kStateMachine, t, 0,
                 "fail-safe duty not at the most effective mode", 64);
    }
  }
  was_failsafe = fan.in_failsafe();
}

}  // namespace

FuzzReport fuzz_unified(std::uint64_t seed, int ticks) {
  FuzzReport report;
  report.target = "unified";
  report.seed = seed;

  FuzzRig rig;
  core::UnifiedConfig cfg;
  Rng rng{seed ^ 0xa5a5a5a5a5a5a5a5ULL};
  cfg.pp = random_pp(rng);
  cfg.fan.array_size = 2 + rng.below(99);
  cfg.tdvfs.array_size = 2 + rng.below(31);
  cfg.tdvfs.threshold = Celsius{rng.uniform(44.0, 60.0)};
  // Odd seeds run fault-aware with short thresholds, so the stream's flat,
  // stuck and extreme segments confirm failures and recoveries, under
  // bus-fault episodes the fail-safe write has to outlast.
  const bool fault_aware = seed % 2 == 1;
  if (fault_aware) {
    cfg.fault_aware = true;
    cfg.health = quick_health();
  }
  core::UnifiedController controller{*rig.hwmon, *rig.cpufreq, cfg};
  const core::FanTechnique& fan = controller.fan();
  const core::TdvfsTechnique& dvfs = controller.dvfs();

  AdversarialStream stream{seed, /*allow_nan=*/false};
  BusFaults bus_faults{Rng{seed ^ 0x6b6b6b6b6b6b6b6bULL}};
  bool was_failsafe = false;
  SimTime now;
  core::DecisionCursor seen_events;
  for (int i = 0; i < ticks; ++i) {
    now.advance_us(250000);
    if (fault_aware) {
      bus_faults.step(rig.bus);
    }
    const std::size_t dvfs_index = dvfs.current_index();
    rig.tick(controller, stream.next(), now);
    ++report.ticks;
    const double t = now.seconds();

    ++report.invariants.checks;
    if (fan.current_index() >= fan.array().size()) {
      report.invariants.add(InvariantKind::kSelectorRange, t, 0, "fan index out of range", 64);
    }
    ++report.invariants.checks;
    if (dvfs.current_index() >= dvfs.array().size()) {
      report.invariants.add(InvariantKind::kSelectorRange, t, 0, "dvfs index out of range", 64);
    }
    check_duty_bounds("unified-fan", fan.current_duty().percent(),
                      cfg.fan.min_duty.percent(), cfg.fan.max_duty.percent(), t,
                      report.invariants);

    check_failsafe_duty(fan, rig, was_failsafe, t, report.invariants);

    // A held frequency does not move.
    if (dvfs.holding()) {
      ++report.invariants.checks;
      if (dvfs.current_index() != dvfs_index || dvfs.events().size() != seen_events.seen) {
        report.invariants.add(InvariantKind::kStateMachine, t, 0, "dvfs retarget while holding",
                              64);
      }
    }

    // Fan-preferred coordination on every new DVFS down-trigger.
    const auto events = dvfs.events();
    for (const core::TdvfsEvent& e : events.after(seen_events)) {
      if (e.to_ghz >= e.from_ghz) {
        continue;
      }
      ++report.invariants.checks;
      const std::optional<Celsius> avg = dvfs.last_round_average();
      if (!avg.has_value() || avg->value() <= dvfs.config().threshold.value()) {
        report.invariants.add(InvariantKind::kCoordination, t, 0,
                              "dvfs down-trigger without a hot round average", 64);
      }
    }
    seen_events = events.cursor();

    // Occasional runtime re-tune: both arrays must survive any Pp.
    if (rng.below(200) == 0) {
      controller.set_policy(random_pp(rng));
      check_control_array(fan.array(), report.invariants, t, 0);
      check_control_array(dvfs.array(), report.invariants, t, 0);
    }
  }
  return report;
}

FuzzReport fuzz_predictive(std::uint64_t seed, int ticks) {
  FuzzReport report;
  report.target = "predictive";
  report.seed = seed;

  FuzzRig rig;
  Rng rng{seed ^ 0x5c5c5c5c5c5c5c5cULL};
  core::PredictiveFanConfig cfg;
  cfg.base.pp = random_pp(rng);
  // Odd seeds run fault-aware under seeded bus-fault episodes, as
  // fuzz_unified does.
  const bool fault_aware = seed % 2 == 1;
  if (fault_aware) {
    cfg.base.fault_aware = true;
    cfg.base.health = quick_health();
  }
  core::PredictiveFanController controller{*rig.hwmon, *rig.rapl, cfg};

  BusFaults bus_faults{Rng{seed ^ 0x4d4d4d4d4d4d4d4dULL}};
  bool was_failsafe = false;
  SimTime now;
  const auto tick = [&](double temp) {
    now.advance_us(250000);
    if (fault_aware) {
      bus_faults.step(rig.bus);
    }
    rig.cpu.advance_counters(Seconds{0.25});
    rig.tick(controller, temp, now);
    ++report.ticks;
    check_failsafe_duty(controller, rig, was_failsafe, now.seconds(), report.invariants);
  };

  // Phase 1: flat temperature, constant load, RAPL counter parked a few
  // rounds below the wrap boundary, so it wraps in a round whose power is
  // compared with the one before. A correct controller computes a ~constant
  // power and never retargets (the window sees a flat line and the
  // feed-forward delta is ~zero). The line alternates by one 0.25 degC
  // sensor step, which leaves every half-round average equal and keeps a
  // fault-aware gate from confirming a stuck sensor.
  rig.cpu.set_utilization(Utilization{0.6});
  rig.cpu.preset_counters(0, 0, sysfs::RaplDomain::kMaxEnergyRangeUj - 200'000'000ULL);
  const int wrap_ticks = std::min(ticks / 2, 400);
  std::uint64_t energy = 0;
  bool wrapped = false;
  for (int i = 0; i < wrap_ticks; ++i) {
    tick(48.0 + 0.25 * (i % 2));
    const std::uint64_t next = rig.rapl->energy_uj();
    wrapped = wrapped || (i > 0 && next < energy);
    energy = next;
  }
  ++report.invariants.checks;
  if (!controller.events().empty()) {
    std::ostringstream msg;
    msg << controller.events().size()
        << " retargets under flat temperature across a RAPL counter wrap";
    report.invariants.add(InvariantKind::kStateMachine, now.seconds(), 0, msg.str(), 64);
  }
  // Any phase of 10 s or more crosses the wrap: the rig spends the 200 J
  // margin in about 17 ticks.
  ++report.invariants.checks;
  if (wrap_ticks >= 40 && !wrapped) {
    report.invariants.add(InvariantKind::kStateMachine, now.seconds(), 0,
                          "the RAPL counter never wrapped after the first tick", 64);
  }

  // Phase 2: adversarial stream with load changes; structural bounds only.
  AdversarialStream stream{seed, /*allow_nan=*/false};
  for (int i = wrap_ticks; i < ticks; ++i) {
    if (rng.below(40) == 0) {
      rig.cpu.set_utilization(Utilization{rng.uniform(0.0, 1.0)});
    }
    tick(stream.next());
    const double t = now.seconds();
    ++report.invariants.checks;
    if (controller.current_index() >= cfg.base.array_size) {
      report.invariants.add(InvariantKind::kSelectorRange, t, 0,
                            "predictive index out of range", 64);
    }
    check_duty_bounds("predictive", controller.current_duty().percent(),
                      cfg.base.min_duty.percent(), cfg.base.max_duty.percent(), t,
                      report.invariants);
  }
  return report;
}

FuzzReport fuzz_pid(std::uint64_t seed, int ticks) {
  FuzzReport report;
  report.target = "pid";
  report.seed = seed;

  FuzzRig rig;
  Rng rng{seed ^ 0x3737373737373737ULL};
  core::PidFanConfig cfg;
  core::PidFanController controller{*rig.hwmon, cfg};

  AdversarialStream stream{seed, /*allow_nan=*/false};
  SimTime now;
  bool just_reset = false;
  for (int i = 0; i < ticks; ++i) {
    now.advance_us(250000);
    const std::uint64_t actuations_before = controller.actuations();
    rig.tick(controller, stream.next(), now);
    ++report.ticks;
    const double t = now.seconds();

    check_duty_bounds("pid", controller.current_duty().percent(), cfg.min_duty.percent(),
                      cfg.max_duty.percent(), t, report.invariants);
    ++report.invariants.checks;
    if (!std::isfinite(controller.integrator())) {
      report.invariants.add(InvariantKind::kRcFinite, t, 0, "pid integrator not finite", 64);
    }
    if (just_reset) {
      // Hardware-state-unknown contract: the tick after a reset must write
      // PWM even if the computed duty matches the pre-reset cache.
      ++report.invariants.checks;
      if (controller.actuations() <= actuations_before) {
        report.invariants.add(InvariantKind::kStateMachine, t, 0,
                              "no PWM write on the tick after reset()", 64);
      }
      just_reset = false;
    }
    if (rng.below(100) == 0) {
      controller.reset();
      just_reset = true;
    }
  }
  return report;
}

FuzzReport fuzz_step_wise(std::uint64_t seed, int ticks) {
  FuzzReport report;
  report.target = "step-wise";
  report.seed = seed;

  // The zone's read_temp bypasses integer sysfs conversion, so this is the
  // one hwmon-free path where genuine NaN readings can reach a controller.
  sysfs::VirtualFs fs;
  double truth = 45.0;
  sysfs::ThermalZone zone{fs, "/sys/class/thermal", 0, "fuzz",
                          [&truth] { return Celsius{truth}; }};
  double fan_duty = 10.0;
  sysfs::FanCoolingAdapter fan{[&fan_duty](DutyCycle d) {
                                 fan_duty = d.percent();
                                 return true;
                               },
                               DutyCycle{10.0}, DutyCycle{100.0}, 9};
  long freq_khz = 2400000;
  sysfs::DvfsCoolingAdapter dvfs{[&freq_khz](long khz) {
                                   freq_khz = khz;
                                   return true;
                                 },
                                 {2400000, 2200000, 2000000, 1800000}};
  zone.add_trip({Celsius{51.0}, sysfs::TripType::kPassive});
  zone.add_trip({Celsius{90.0}, sysfs::TripType::kCritical});
  zone.bind(&fan);
  zone.bind(&dvfs);
  core::StepWiseGovernor governor{zone};

  AdversarialStream stream{seed, /*allow_nan=*/true};
  SimTime now;
  for (int i = 0; i < ticks; ++i) {
    now.advance_us(250000);
    truth = stream.next();
    governor.on_sample(now);
    ++report.ticks;
    const double t = now.seconds();
    for (const sysfs::CoolingDevice* device : zone.bound_devices()) {
      ++report.invariants.checks;
      if (device->cooling_state() < 0 || device->cooling_state() > device->max_cooling_state()) {
        std::ostringstream msg;
        msg << device->cooling_type() << " cooling state " << device->cooling_state()
            << " outside [0, " << device->max_cooling_state() << "]";
        report.invariants.add(InvariantKind::kActuationRange, t, 0, msg.str(), 64);
      }
    }
    ++report.invariants.checks;
    if (fan_duty < 10.0 - 1e-9 || fan_duty > 100.0 + 1e-9) {
      report.invariants.add(InvariantKind::kActuationRange, t, 0,
                            "step-wise fan duty outside its adapter bounds", 64);
    }
  }
  return report;
}

FuzzReport fuzz_selector(std::uint64_t seed, int rounds) {
  FuzzReport report;
  report.target = "selector";
  report.seed = seed;

  Rng rng{seed ^ 0xc9c9c9c9c9c9c9c9ULL};
  auto random_delta = [&rng]() {
    switch (rng.below(5)) {
      case 0:
        return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return std::numeric_limits<double>::infinity() * (rng.uniform() < 0.5 ? -1.0 : 1.0);
      case 2:
        return rng.uniform(-1.0e6, 1.0e6);  // far beyond any array span
      default:
        return rng.uniform(-10.0, 10.0);
    }
  };

  for (int i = 0; i < rounds; ++i) {
    const std::size_t n = 2 + rng.below(120);
    core::ModeSelectorConfig scfg;
    core::ModeSelector selector{scfg, n};
    core::WindowRound round;
    round.level1_delta = CelsiusDelta{random_delta()};
    round.level2_delta = CelsiusDelta{random_delta()};
    round.level1_average = Celsius{rng.uniform(-100.0, 200.0)};
    round.level2_valid = rng.uniform() < 0.7;
    const std::size_t current = rng.below(n);
    const core::ModeDecision decision = selector.decide(current, round);
    check_selector_decision(selector, decision, current, round, n, report.invariants, 0.0, 0);
    ++report.ticks;

    // Array fills: random physical mode counts up to a family's limit and
    // random bounds, random Pp, plus a runtime re-tune — every fill must
    // keep Eq. (1)'s structure.
    if (i % 4 == 0) {
      const std::size_t m = 1 + rng.below(core::DecisionLog::kMaxModes);
      std::vector<double> modes;
      modes.reserve(m);
      double v = rng.uniform(0.0, 5.0);
      for (std::size_t k = 0; k < m; ++k) {
        v += rng.uniform(0.1, 2.0);  // strictly ascending effectiveness
        modes.push_back(v);
      }
      core::ThermalControlArray array{modes, 2 + rng.below(120), random_pp(rng)};
      check_control_array(array, report.invariants);
      array.set_policy(random_pp(rng));
      check_control_array(array, report.invariants);
    }
  }
  return report;
}

FuzzReport fuzz_plane(std::uint64_t seed, int ticks) {
  FuzzReport report;
  report.target = "plane";
  report.seed = seed;

  Rng rng{seed ^ 0x3b3b3b3b3b3b3b3bULL};
  const std::size_t nodes = 2 + rng.below(5);
  cluster::NodeParams params;
  params.seed = seed;
  cluster::Cluster rack{nodes, params};
  for (std::size_t i = 0; i < nodes; ++i) {
    rack.node(i).set_utilization(Utilization{0.02});
  }
  rack.settle_all();

  cluster::EngineConfig engine_cfg;
  // A plane round per 0.25 s: `ticks` rounds total, capped so one fuzz seed
  // stays a sub-second run even at the CI tick count.
  engine_cfg.horizon = Seconds{0.25 * static_cast<double>(std::min(ticks, 600))};
  cluster::Engine engine{rack, engine_cfg};

  cluster::ctrl::PlaneConfig plane_cfg;
  plane_cfg.period = Seconds{0.25};
  plane_cfg.stall_timeout = Seconds{1.0 + rng.uniform(0.0, 2.0)};
  plane_cfg.nodes_per_rack = 1 + rng.below(3);
  // Sometimes binding, sometimes generous, sometimes uncapped.
  plane_cfg.rack_budget_w = rng.uniform() < 0.75 ? rng.uniform(30.0, 200.0) : 0.0;
  plane_cfg.transport.drop_rate = rng.uniform(0.05, 0.4);
  plane_cfg.transport.reorder_rate = rng.uniform(0.05, 0.4);
  plane_cfg.transport.seed = seed;
  cluster::ctrl::ControlPlane plane{rack, plane_cfg};
  engine.attach_plane(plane);

  // Busy nodes so budgets actually bite.
  std::vector<workload::SegmentLoad> loads;
  loads.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    loads.push_back(workload::sudden_profile(Seconds{0.0}, Seconds{1.0e6}, 0.9));
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    engine.set_node_load(i, &loads[i]);
  }

  // Chaos driver: every second, maybe stall or resume a random rack, churn
  // the broadcast Pp, or push a random budget through the real message path.
  engine.add_periodic(Seconds{1.0}, [&](SimTime) {
    const auto racks = plane.rack_count();
    switch (rng.below(5)) {
      case 0:
        plane.stall_rack(rng.below(racks));
        break;
      case 1:
        plane.resume_rack(rng.below(racks));
        break;
      case 2:
        plane.broadcast_policy(static_cast<int>(1 + rng.below(100)));
        break;
      case 3: {
        // Room -> random rack: a budget anywhere in [-50, 250] W (negative
        // and zero both mean "uncapped" and must be handled).
        cluster::ctrl::Message m =
            cluster::ctrl::make_power_budget(rng.uniform(-50.0, 250.0));
        m.from = static_cast<cluster::ctrl::Endpoint>(nodes + racks);
        m.to = static_cast<cluster::ctrl::Endpoint>(nodes + rng.below(racks));
        plane.transport().send(m);
        break;
      }
      default:
        break;  // quiet second
    }
  });

  // Invariant probe, every plane round.
  engine.add_periodic(Seconds{0.25}, [&](SimTime now) {
    const double t = now.seconds();
    ++report.ticks;
    for (std::size_t i = 0; i < nodes; ++i) {
      const cluster::ctrl::NodeAgent& agent = plane.agent(i);
      const std::vector<double> table = rack.node(i).cpufreq().available_ghz();

      ++report.invariants.checks;
      if (!table.empty() && agent.cap_index() >= table.size()) {
        std::ostringstream msg;
        msg << "agent cap index " << agent.cap_index() << " off the " << table.size()
            << "-entry p-state ladder";
        report.invariants.add(InvariantKind::kActuationRange, t, i, msg.str(), 64);
      }

      ++report.invariants.checks;
      if (agent.joined() && agent.autonomous()) {
        report.invariants.add(InvariantKind::kStateMachine, t, i,
                              "agent joined but still autonomous", 64);
      }

      ++report.invariants.checks;
      const double ghz = rack.node(i).cpu().frequency().value();
      bool on_table = table.empty();
      for (double f : table) {
        on_table = on_table || std::abs(f - ghz) < 1e-9;
      }
      if (!on_table) {
        std::ostringstream msg;
        msg << "cpu frequency " << ghz << " GHz not on the advertised table";
        report.invariants.add(InvariantKind::kActuationRange, t, i, msg.str(), 64);
      }

      ++report.invariants.checks;
      if (!std::isfinite(rack.node(i).die_temperature().value())) {
        report.invariants.add(InvariantKind::kRcFinite, t, i, "non-finite die temperature",
                              64);
      }
    }
  });

  engine.run();

  // Counter coherence after the storm: every failsafe exit pairs with an
  // entry, and acks never exceed requests (the transport drops, it does not
  // duplicate).
  const cluster::ctrl::PlaneStats& stats = plane.stats();
  ++report.invariants.checks;
  if (stats.failsafe_exits > stats.failsafe_entries) {
    report.invariants.add(InvariantKind::kStateMachine, engine_cfg.horizon.value(), 0,
                          "more failsafe exits than entries", 64);
  }
  ++report.invariants.checks;
  if (stats.join_acks > stats.join_requests) {
    report.invariants.add(InvariantKind::kStateMachine, engine_cfg.horizon.value(), 0,
                          "more join acks than join requests", 64);
  }
  return report;
}

FuzzReport fuzz_all(std::uint64_t seed, int ticks) {
  FuzzReport report = fuzz_unified(seed, ticks);
  report.merge(fuzz_predictive(seed, ticks));
  report.merge(fuzz_pid(seed, ticks));
  report.merge(fuzz_step_wise(seed, ticks));
  report.merge(fuzz_selector(seed, ticks * 2));
  report.merge(fuzz_plane(seed, ticks));
  report.seed = seed;
  return report;
}

}  // namespace thermctl::verify
