#include "hw/power_meter.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

MeterColumns::MeterColumns(std::size_t n, const PowerMeterParams& meter_params)
    : params(meter_params), energy_j(n, 0.0), elapsed_s(n, 0.0) {
  THERMCTL_ASSERT(params.psu_efficiency > 0.0 && params.psu_efficiency <= 1.0,
                  "PSU efficiency must be in (0, 1]");
}

PowerMeter::PowerMeter(MeterColumns& cols, std::size_t slot) : cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.energy_j.size(), "column slot out of range");
}

Watts PowerMeter::average_power() const {
  const double elapsed = cols_.elapsed_s[slot_];
  if (elapsed <= 0.0) {
    return Watts{0.0};
  }
  return Watts{cols_.energy_j[slot_] / elapsed};
}

}  // namespace thermctl::hw
