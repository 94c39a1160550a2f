#include "hw/fan_device.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

FanColumns::FanColumns(std::size_t n, const FanParams& fan_params)
    : params(fan_params), duty_pct(n, 0.0), rpm(n, 0.0), stuck(n, 0) {
  THERMCTL_ASSERT(params.max_rpm.value() > 0.0, "fan max RPM must be positive");
  THERMCTL_ASSERT(params.rotor_tau.value() > 0.0, "rotor time constant must be positive");
}

FanDevice::FanDevice(FanColumns& cols, std::size_t slot) : cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.rpm.size(), "column slot out of range");
}

}  // namespace thermctl::hw
