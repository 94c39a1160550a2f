#include "hw/power_meter.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::hw {

PowerMeter::PowerMeter(PowerMeterParams params, MeterColumns& cols, std::size_t slot)
    : params_(params), cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.energy_j.size(), "column slot out of range");
  THERMCTL_ASSERT(params_.psu_efficiency > 0.0 && params_.psu_efficiency <= 1.0,
                  "PSU efficiency must be in (0, 1]");
}

Watts PowerMeter::read_with(Watts dc_component) const {
  const double dc = params_.base_load.value() + dc_component.value();
  const double ac = dc / params_.psu_efficiency;
  const double r = params_.resolution_watts;
  return Watts{std::round(ac / r) * r};
}

Watts PowerMeter::average_power() const {
  const double elapsed = cols_.elapsed_s[slot_];
  if (elapsed <= 0.0) {
    return Watts{0.0};
  }
  return Watts{cols_.energy_j[slot_] / elapsed};
}

}  // namespace thermctl::hw
