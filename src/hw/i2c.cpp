#include "hw/i2c.hpp"

#include "common/assert.hpp"

namespace thermctl::hw {

void I2cBus::attach(std::uint8_t address, I2cSlave* dev) {
  THERMCTL_ASSERT(dev != nullptr, "cannot attach null device");
  THERMCTL_ASSERT(address <= 0x7f, "7-bit address out of range");
  THERMCTL_ASSERT(find(address) == nullptr, "address already in use");
  THERMCTL_ASSERT(device_count_ < kMaxDevices, "too many devices on one bus");
  devices_[device_count_++] = Attached{address, dev};
}

void I2cBus::detach(std::uint8_t address) {
  for (std::size_t i = 0; i < device_count_; ++i) {
    if (devices_[i].address == address) {
      devices_[i] = devices_[--device_count_];
      return;
    }
  }
}

I2cSlave* I2cBus::find(std::uint8_t address) const {
  for (std::size_t i = 0; i < device_count_; ++i) {
    if (devices_[i].address == address) {
      return devices_[i].dev;
    }
  }
  return nullptr;
}

bool I2cBus::transfer_faulted() {
  if (transient_faults_ > 0) {
    --transient_faults_;
    return true;
  }
  return faulted_;
}

I2cStatus I2cBus::read_byte_data(std::uint8_t address, std::uint8_t reg, std::uint8_t& out) {
  if (transfer_faulted()) {
    return I2cStatus::kBusFault;
  }
  I2cSlave* const dev = find(address);
  if (dev == nullptr) {
    return I2cStatus::kAddressNak;
  }
  const auto v = dev->read_register(reg);
  if (!v.has_value()) {
    return I2cStatus::kRegisterNak;
  }
  out = *v;
  return I2cStatus::kOk;
}

I2cStatus I2cBus::write_byte_data(std::uint8_t address, std::uint8_t reg, std::uint8_t value) {
  if (transfer_faulted()) {
    return I2cStatus::kBusFault;
  }
  I2cSlave* const dev = find(address);
  if (dev == nullptr) {
    return I2cStatus::kAddressNak;
  }
  return dev->write_register(reg, value) ? I2cStatus::kOk : I2cStatus::kRegisterNak;
}

}  // namespace thermctl::hw
