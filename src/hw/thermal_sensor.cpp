#include "hw/thermal_sensor.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

SensorColumns::SensorColumns(std::size_t n, const SensorParams& sensor_params,
                             const double* truth_row)
    : params(sensor_params),
      truth(truth_row),
      last_degc(n, 0.0),
      rng(n, Rng{0}),
      stuck(n, 0),
      has_reading(n, 0) {
  THERMCTL_ASSERT(truth != nullptr, "sensors need a truth row");
  THERMCTL_ASSERT(params.quantization_degc > 0.0, "quantization step must be positive");
  THERMCTL_ASSERT(params.noise_sigma_degc >= 0.0, "noise sigma must be non-negative");
}

ThermalSensor::ThermalSensor(SensorColumns& cols, std::size_t slot, Rng rng)
    : cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.last_degc.size(), "column slot out of range");
  cols_.rng[slot_] = rng;
}

}  // namespace thermctl::hw
