#include "hw/fan_device.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

FanDevice::FanDevice(FanParams params, FanColumns& cols, std::size_t slot)
    : params_(params), cols_(cols), slot_(slot) {
  THERMCTL_ASSERT(slot < cols.rpm.size(), "column slot out of range");
  THERMCTL_ASSERT(params_.max_rpm.value() > 0.0, "fan max RPM must be positive");
  THERMCTL_ASSERT(params_.rotor_tau.value() > 0.0, "rotor time constant must be positive");
}

}  // namespace thermctl::hw
