#include "hw/cpu_device.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::hw {

CpuColumns::CpuColumns(std::size_t n)
    : pstate(n, 0),
      utilization(n, 0.0),
      die_temperature(n, 40.0),
      power_cache(n, 0.0),
      power_valid(n, 0),
      power_gen(n, 0),
      throttled(n, 0),
      transitions(n, 0),
      aperf(n, 0),
      mperf(n, 0),
      energy_uj(n, 0),
      aperf_frac(n, 0.0),
      mperf_frac(n, 0.0),
      energy_frac(n, 0.0),
      injector(n) {}

CpuDevice::CpuDevice(CpuParams params, CpuColumns& cols, std::size_t slot)
    : params_(std::move(params)),
      cols_(cols),
      slot_(slot),
      idle_injector_(params_.idle, cols.injector, slot) {
  THERMCTL_ASSERT(slot < cols.pstate.size(), "column slot out of range");
  THERMCTL_ASSERT(!params_.pstates.empty(), "CPU needs at least one P-state");
  for (std::size_t i = 1; i < params_.pstates.size(); ++i) {
    THERMCTL_ASSERT(params_.pstates[i].frequency < params_.pstates[i - 1].frequency,
                    "P-states must be in descending frequency order");
  }
  THERMCTL_ASSERT(params_.k_dyn > 0.0 && params_.k_leak >= 0.0, "power coefficients invalid");
}

void CpuDevice::set_pstate(std::size_t index) {
  THERMCTL_ASSERT(index < params_.pstates.size(), "P-state index out of range");
  if (index != cols_.pstate[slot_]) {
    cols_.pstate[slot_] = static_cast<std::uint32_t>(index);
    ++cols_.transitions[slot_];
    cols_.power_valid[slot_] = 0;
  }
}

void CpuDevice::set_frequency(GigaHertz f) {
  std::size_t best = 0;
  double best_err = 1e30;
  for (std::size_t i = 0; i < params_.pstates.size(); ++i) {
    const double err = std::abs(params_.pstates[i].frequency.value() - f.value());
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  set_pstate(best);
}

void CpuDevice::recompute_power() const {
  const PState& ps = params_.pstates[cols_.pstate[slot_]];
  const double v2 = ps.voltage.value() * ps.voltage.value();
  const double activity =
      params_.idle_activity + (1.0 - params_.idle_activity) * cols_.utilization[slot_];
  // PROCHOT clock-gates: dynamic power tracks the delivered (effective)
  // frequency while voltage stays at the OS-selected P-state. Forced-idle
  // injection scales both components by its per-C-state retention.
  const double p_dyn = params_.k_dyn * v2 * effective_frequency().value() * activity *
                       idle_injector_.dynamic_power_factor();
  const double p_leak =
      params_.k_leak * v2 *
      (1.0 + params_.leakage_alpha * (cols_.die_temperature[slot_] - params_.t_ref.value())) *
      idle_injector_.leakage_power_factor();
  cols_.power_cache[slot_] = p_dyn + std::max(0.0, p_leak);
  cols_.power_valid[slot_] = 1;
  cols_.power_gen[slot_] = idle_injector_.generation();
}

void CpuDevice::advance_counters(Seconds dt) {
  // Counters in units of 1e6 cycles / microjoules so 64 bits last for any
  // plausible simulation length.
  const double aperf_inc = work_capacity(dt) * 1e3;  // GHz-s -> Mcycles
  const double mperf_inc = max_frequency().value() * dt.value() * 1e3;
  const double energy_inc = power().value() * dt.value() * 1e6;  // J -> uJ

  double& aperf_frac = cols_.aperf_frac[slot_];
  double& mperf_frac = cols_.mperf_frac[slot_];
  double& energy_frac = cols_.energy_frac[slot_];
  aperf_frac += aperf_inc;
  mperf_frac += mperf_inc;
  energy_frac += energy_inc;
  const auto a = static_cast<std::uint64_t>(aperf_frac);
  const auto m = static_cast<std::uint64_t>(mperf_frac);
  const auto e = static_cast<std::uint64_t>(energy_frac);
  cols_.aperf[slot_] += a;
  cols_.mperf[slot_] += m;
  cols_.energy_uj[slot_] += e;
  aperf_frac -= static_cast<double>(a);
  mperf_frac -= static_cast<double>(m);
  energy_frac -= static_cast<double>(e);
}

}  // namespace thermctl::hw
