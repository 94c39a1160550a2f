#include "hw/cpu_device.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace thermctl::hw {

CpuColumns::CpuColumns(std::size_t n, CpuParams cpu_params)
    : params(std::move(cpu_params)), injector(n, params.idle) {
  size_columns(columns(*this), n);
  die_temperature.assign(n, 40.0);
  THERMCTL_ASSERT(!params.pstates.empty(), "CPU needs at least one P-state");
  for (std::size_t i = 1; i < params.pstates.size(); ++i) {
    THERMCTL_ASSERT(params.pstates[i].frequency < params.pstates[i - 1].frequency,
                    "P-states must be in descending frequency order");
  }
  THERMCTL_ASSERT(params.k_dyn > 0.0 && params.k_leak >= 0.0, "power coefficients invalid");
}

CpuDevice::CpuDevice(CpuColumns& cols, std::size_t slot)
    : cols_(cols), slot_(slot), idle_injector_(cols.injector, slot) {
  THERMCTL_ASSERT(slot < cols.pstate.size(), "column slot out of range");
}

void CpuDevice::set_pstate(std::size_t index) {
  THERMCTL_ASSERT(index < params().pstates.size(), "P-state index out of range");
  if (index != cols_.pstate[slot_]) {
    cols_.pstate[slot_] = static_cast<std::uint32_t>(index);
    ++cols_.transitions[slot_];
    cols_.power_valid[slot_] = 0;
  }
}

void CpuDevice::set_frequency(GigaHertz f) {
  std::size_t best = 0;
  double best_err = 1e30;
  for (std::size_t i = 0; i < params().pstates.size(); ++i) {
    const double err = std::abs(params().pstates[i].frequency.value() - f.value());
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  set_pstate(best);
}

Watts CpuDevice::power() const {
  const std::size_t s = slot_;
  const InjectorColumns& inj = cols_.injector;
  return Watts{CpuKernel{params()}.power_w(
      cols_.pstate[s], cols_.throttled[s], cols_.utilization[s], cols_.die_temperature[s],
      inj.dynamic_factor[s], inj.leakage_factor[s], inj.generation[s], cols_.power_cache[s],
      cols_.power_valid[s], cols_.power_gen[s])};
}

void CpuDevice::advance_counters(Seconds dt) {
  const std::size_t s = slot_;
  const CpuKernel kernel{params()};
  kernel.advance_counters(dt.value(), kernel.effective_ghz(cols_.pstate[s], cols_.throttled[s]),
                          cols_.utilization[s], cols_.injector.throughput_factor[s],
                          power().value(), cols_.aperf[s], cols_.aperf_frac[s], cols_.mperf[s],
                          cols_.mperf_frac[s], cols_.energy_uj[s], cols_.energy_frac[s]);
}

}  // namespace thermctl::hw
