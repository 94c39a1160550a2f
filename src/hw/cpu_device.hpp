// DVFS-capable CPU device model.
//
// Models the evaluation platform's AMD Athlon64 4000+ : five P-states
// (2.4/2.2/2.0/1.8/1.0 GHz), per-state core voltage, and a power model with
// the structure the paper's argument relies on —
//
//   P = P_dyn + P_leak
//   P_dyn  = k_dyn * V^2 * f * activity      (activity tracks utilization)
//   P_leak = k_leak * V^2 * (1 + alpha*(T_die - T_ref))
//
// so that scaling frequency down reduces power super-linearly (via the
// accompanying voltage drop, the paper's "cubic" claim) while leakage couples
// power back to die temperature.
//
// Frequency transitions are counted, because Table 1 scores governors by
// the number of transitions they inflict (a reliability proxy). The model
// charges a transition no execution time: the workload sees only the new
// frequency.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/units.hpp"
#include "hw/cstates.hpp"

namespace thermctl::hw {

/// One DVFS operating point.
struct PState {
  GigaHertz frequency{};
  Volts voltage{};
};

struct CpuParams {
  /// P-states in descending frequency order (index 0 = fastest). Defaults to
  /// the Athlon64 4000+ ladder from the paper with plausible VID voltages.
  std::vector<PState> pstates{
      {GigaHertz{2.4}, Volts{1.40}}, {GigaHertz{2.2}, Volts{1.325}},
      {GigaHertz{2.0}, Volts{1.25}}, {GigaHertz{1.8}, Volts{1.20}},
      {GigaHertz{1.0}, Volts{1.10}},
  };
  /// Dynamic power coefficient, W / (V^2 * GHz). 14.0 gives ~66 W of
  /// dynamic power flat-out at 2.4 GHz / 1.4 V (Athlon64 4000+ class).
  double k_dyn = 14.0;
  /// Leakage coefficient, W / V^2 (~ 5.6 W at 1.4 V and T_ref).
  double k_leak = 2.85;
  /// Leakage temperature sensitivity per kelvin above t_ref.
  double leakage_alpha = 0.012;
  Celsius t_ref{45.0};
  /// Floor activity when idle (OS housekeeping, clock tree).
  double idle_activity = 0.06;
  /// ACPI idle-state ladder + injection mechanics (§3.2.2's third
  /// technique).
  IdleInjectorParams idle{};
};

/// Adds `inc` to a counter kept as whole units plus a fractional carry.
inline void carry_add(double inc, std::uint64_t& whole, double& frac) {
  frac += inc;
  const auto w = static_cast<std::uint64_t>(frac);
  whole += w;
  frac -= static_cast<double>(w);
}

/// The CPU's per-step formulas over one row's cells, with CpuParams'
/// scalars loaded once: the only copy of this arithmetic. CpuDevice runs it
/// on its row and FleetSweep on every row of a pass; a pass builds its
/// kernel in a local, where no column store can alias the constants.
class CpuKernel {
 public:
  explicit CpuKernel(const CpuParams& p)
      : pstates_(p.pstates.data()),
        min_ghz_(p.pstates.back().frequency.value()),
        max_ghz_(p.pstates.front().frequency.value()),
        k_dyn_(p.k_dyn),
        k_leak_(p.k_leak),
        leakage_alpha_(p.leakage_alpha),
        t_ref_(p.t_ref.value()),
        idle_activity_(p.idle_activity) {}

  /// Frequency delivered to execution: the slowest P-state's while PROCHOT
  /// gates the clock.
  [[nodiscard]] double effective_ghz(std::uint32_t pstate, std::uint8_t throttled) const {
    return throttled != 0 ? min_ghz_ : pstates_[pstate].frequency.value();
  }

  /// The power law at one row's operating point, memoized in `cache`: the
  /// memo holds while `valid` is set and `gen` matches the injector's
  /// generation, else the law runs and stores it. The inputs are the row's
  /// cells, read only on a miss.
  double power_w(const std::uint32_t& pstate, const std::uint8_t& throttled, const double& util,
                 const double& die_c, const double& dyn_factor, const double& leak_factor,
                 const std::uint64_t& injector_gen, double& cache, std::uint8_t& valid,
                 std::uint64_t& gen) const {
    if (valid == 0 || gen != injector_gen) {
      const double v = pstates_[pstate].voltage.value();
      const double v2 = v * v;
      const double activity = idle_activity_ + (1.0 - idle_activity_) * util;
      // PROCHOT clock-gates: dynamic power tracks the delivered (effective)
      // frequency while voltage stays at the OS-selected P-state. Forced-idle
      // injection scales both components by its per-C-state retention.
      const double p_dyn =
          k_dyn_ * v2 * effective_ghz(pstate, throttled) * activity * dyn_factor;
      const double p_leak =
          k_leak_ * v2 * (1.0 + leakage_alpha_ * (die_c - t_ref_)) * leak_factor;
      cache = p_dyn + std::max(0.0, p_leak);
      valid = 1;
      gen = injector_gen;
    }
    return cache;
  }

  /// Advances one row's counter block by `dt_s` at delivered frequency
  /// `eff_ghz`, utilization `util`, injector throughput `throughput` and CPU
  /// power `power`. Counters count 1e6 cycles / microjoules, so 64 bits
  /// last for any plausible simulation; each keeps its fractional carry.
  void advance_counters(double dt_s, double eff_ghz, double util, double throughput,
                        double power, std::uint64_t& aperf, double& aperf_frac,
                        std::uint64_t& mperf, double& mperf_frac, std::uint64_t& energy_uj,
                        double& energy_frac) const {
    carry_add(eff_ghz * util * dt_s * throughput * 1e3, aperf, aperf_frac);  // GHz-s -> Mcycles
    carry_add(max_ghz_ * dt_s * 1e3, mperf, mperf_frac);
    carry_add(power * dt_s * 1e6, energy_uj, energy_frac);  // J -> uJ
  }

 private:
  const PState* pstates_;
  double min_ghz_;
  double max_ghz_;
  double k_dyn_;
  double k_leak_;
  double leakage_alpha_;
  double t_ref_;
  double idle_activity_;
};

/// The CPUs' constants, once for every row, and their hot state, one row
/// per CPU: the operating point, the power memo, the counter block and the
/// idle injector's constants and mirrors. FleetSweep walks these columns; a
/// CpuDevice reads and writes its own row. A fresh row is a powered-on CPU:
/// fastest P-state, idle, die at 40 °C, no valid power memo, counters at
/// zero, no injection.
struct CpuColumns {
  CpuColumns(std::size_t n, CpuParams cpu_params);

  const CpuParams params;
  InjectorColumns injector;  // built from params.idle
  std::vector<std::uint32_t> pstate;
  std::vector<double> utilization;      // fraction
  std::vector<double> die_temperature;  // °C
  std::vector<double> power_cache;      // W, valid when power_valid != 0
  std::vector<std::uint8_t> power_valid;
  std::vector<std::uint64_t> power_gen;  // injector generation of the memo
  std::vector<std::uint8_t> throttled;
  std::vector<std::uint64_t> transitions;
  std::vector<std::uint64_t> aperf;
  std::vector<std::uint64_t> mperf;
  std::vector<std::uint64_t> energy_uj;
  std::vector<double> aperf_frac;
  std::vector<double> mperf_frac;
  std::vector<double> energy_frac;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) {
    return std::tie(g.pstate, g.utilization, g.die_temperature, g.power_cache, g.power_valid,
                    g.power_gen, g.throttled, g.transitions, g.aperf, g.mperf, g.energy_uj,
                    g.aperf_frac, g.mperf_frac, g.energy_frac);
  }
  /// This group's columns and its injector's.
  [[nodiscard]] std::size_t memory_bytes() const {
    return column_bytes(columns(*this)) + injector.memory_bytes();
  }
};

/// One CPU: a view onto row `slot` of a CpuColumns.
class CpuDevice {
 public:
  CpuDevice(CpuColumns& cols, std::size_t slot);

  // One device per row: a copy would be a second writer of the same state.
  CpuDevice(const CpuDevice&) = delete;
  CpuDevice& operator=(const CpuDevice&) = delete;

  [[nodiscard]] std::span<const PState> pstates() const { return params().pstates; }
  [[nodiscard]] std::size_t pstate_count() const { return params().pstates.size(); }

  /// Currently active P-state index (0 = fastest).
  [[nodiscard]] std::size_t pstate_index() const { return cols_.pstate[slot_]; }
  [[nodiscard]] GigaHertz frequency() const { return params().pstates[pstate_index()].frequency; }
  [[nodiscard]] Volts voltage() const { return params().pstates[pstate_index()].voltage; }
  [[nodiscard]] GigaHertz max_frequency() const { return params().pstates.front().frequency; }
  [[nodiscard]] GigaHertz min_frequency() const { return params().pstates.back().frequency; }

  /// Requests a P-state switch; counts a transition when the index changes.
  void set_pstate(std::size_t index);

  /// Requests the P-state whose frequency is nearest `f`.
  void set_frequency(GigaHertz f);

  /// Hardware thermal throttle (PROCHOT#). While asserted the core clock is
  /// gated down to the slowest P-state frequency *without* changing the
  /// OS-visible P-state — exactly how real parts behave: cpufreq still
  /// reports the requested frequency, but work completes at the throttled
  /// rate. Not counted as a transition.
  void set_thermal_throttle(bool asserted) {
    cols_.throttled[slot_] = asserted ? 1 : 0;
    cols_.power_valid[slot_] = 0;
  }
  [[nodiscard]] bool thermal_throttled() const { return cols_.throttled[slot_] != 0; }

  /// Frequency actually delivered to execution (accounts for PROCHOT).
  [[nodiscard]] GigaHertz effective_frequency() const {
    return thermal_throttled() ? min_frequency() : frequency();
  }

  /// Instantaneous utilization imposed by the workload model.
  void set_utilization(Utilization u) {
    cols_.utilization[slot_] = u.fraction();
    cols_.power_valid[slot_] = 0;
  }
  [[nodiscard]] Utilization utilization() const { return Utilization{cols_.utilization[slot_]}; }

  /// Die temperature feedback for the leakage term.
  void set_die_temperature(Celsius t) {
    cols_.die_temperature[slot_] = t.value();
    cols_.power_valid[slot_] = 0;
  }

  /// Instantaneous electrical power at the current operating point. The node
  /// reads it several times per physics step (package heat input, meter,
  /// counters), so the value is memoized until an input changes; injection
  /// changes are tracked through the injector's generation counter.
  [[nodiscard]] Watts power() const;

  /// Number of completed frequency transitions since construction.
  [[nodiscard]] std::uint64_t transition_count() const { return cols_.transitions[slot_]; }

  /// Work executed during `dt` at the current frequency and utilization, in
  /// normalized units of GHz-seconds (cycles / 1e9). Accounts for PROCHOT
  /// throttling and forced-idle injection. The engine advances the workload
  /// from delivered_frequency() instead; only tests read this product.
  [[nodiscard]] double work_capacity(Seconds dt) const {
    return effective_frequency().value() * cols_.utilization[slot_] * dt.value() *
           idle_injector_.throughput_factor();
  }

  /// The frequency the workload effectively progresses at, folding in both
  /// PROCHOT and idle injection — what the cluster engine feeds the app.
  [[nodiscard]] GigaHertz delivered_frequency() const {
    return GigaHertz{effective_frequency().value() * idle_injector_.throughput_factor()};
  }

  /// The ACPI idle-injection mechanism (sleep-state thermal control).
  [[nodiscard]] IdleInjector& idle_injector() { return idle_injector_; }
  [[nodiscard]] const IdleInjector& idle_injector() const { return idle_injector_; }

  // ---- hardware counters (the paper's future-work prediction inputs) ----

  /// Advances the counter block by `dt` at the current operating point.
  /// FleetSweep runs the same kernel every physics step.
  void advance_counters(Seconds dt);

  /// APERF-style counter: cycles actually delivered (frequency, throttling,
  /// idle injection and utilization all fold in).
  [[nodiscard]] std::uint64_t aperf() const { return cols_.aperf[slot_]; }

  /// MPERF-style counter: cycles at the nominal (max) frequency regardless
  /// of load — the time base. aperf/mperf deltas give delivered speed.
  [[nodiscard]] std::uint64_t mperf() const { return cols_.mperf[slot_]; }

  /// RAPL-style accumulated package energy in microjoules.
  [[nodiscard]] std::uint64_t energy_uj() const { return cols_.energy_uj[slot_]; }

  /// Overwrites the counter block (test / fault-injection hook) — e.g. to
  /// place the energy counter just below a RAPL wrap boundary so wraparound
  /// handling can be exercised without simulating hours of runtime.
  void preset_counters(std::uint64_t aperf, std::uint64_t mperf, std::uint64_t energy_uj) {
    cols_.aperf[slot_] = aperf;
    cols_.mperf[slot_] = mperf;
    cols_.energy_uj[slot_] = energy_uj;
    cols_.aperf_frac[slot_] = 0.0;
    cols_.mperf_frac[slot_] = 0.0;
    cols_.energy_frac[slot_] = 0.0;
  }

  [[nodiscard]] const CpuParams& params() const { return cols_.params; }

 private:
  CpuColumns& cols_;
  std::size_t slot_;
  IdleInjector idle_injector_;
};

}  // namespace thermctl::hw
