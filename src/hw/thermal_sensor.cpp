#include "hw/thermal_sensor.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace thermctl::hw {

ThermalSensor::ThermalSensor(std::function<Celsius()> source, SensorParams params, Rng rng,
                             SensorColumns& cols, std::size_t slot)
    : source_(std::move(source)), params_(params), rng_(rng), cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.last_degc.size(), "column slot out of range");
  THERMCTL_ASSERT(static_cast<bool>(source_), "sensor needs a source");
  THERMCTL_ASSERT(params_.quantization_degc > 0.0, "quantization step must be positive");
  THERMCTL_ASSERT(params_.noise_sigma_degc >= 0.0, "noise sigma must be non-negative");
}

Celsius ThermalSensor::sample() {
  if (stuck_ && has_reading_) {
    return Celsius{cols_.last_degc[slot_]};
  }
  double v = source_().value() + params_.offset_degc;
  if (params_.noise_sigma_degc > 0.0) {
    v += rng_.normal(0.0, params_.noise_sigma_degc);
  }
  const double q = params_.quantization_degc;
  v = std::round(v / q) * q;
  cols_.last_degc[slot_] = v;
  has_reading_ = true;
  return Celsius{v};
}

}  // namespace thermctl::hw
