#include "hw/i2c.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace thermctl::hw {
namespace {

/// A trivial 4-register device for protocol tests.
class ScratchDevice final : public I2cSlave {
 public:
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override {
    if (reg >= 4) {
      return std::nullopt;
    }
    return regs_[reg];
  }
  bool write_register(std::uint8_t reg, std::uint8_t value) override {
    if (reg >= 4 || reg == 3) {  // register 3 is read-only
      return false;
    }
    regs_[reg] = value;
    return true;
  }

 private:
  std::uint8_t regs_[4] = {0xAA, 0xBB, 0xCC, 0xDD};
};

/// A device that records every register access reaching it, in order.
class RecordingDevice final : public I2cSlave {
 public:
  struct Access {
    std::uint8_t reg = 0;
    std::uint8_t value = 0;  // the byte written, or the byte read back
    bool is_write = false;

    bool operator==(const Access&) const = default;
  };

  std::optional<std::uint8_t> read_register(std::uint8_t reg) override {
    const auto v = inner_.read_register(reg);
    accesses.push_back({reg, v.value_or(0), /*is_write=*/false});
    return v;
  }
  bool write_register(std::uint8_t reg, std::uint8_t value) override {
    accesses.push_back({reg, value, /*is_write=*/true});
    return inner_.write_register(reg, value);
  }

  std::vector<Access> accesses;

 private:
  ScratchDevice inner_;
};

TEST(I2cBus, ReadWriteRoundTrip) {
  I2cBus bus;
  ScratchDevice dev;
  bus.attach(0x2E, &dev);
  EXPECT_EQ(bus.write_byte_data(0x2E, 1, 0x42), I2cStatus::kOk);
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 1, out), I2cStatus::kOk);
  EXPECT_EQ(out, 0x42);
}

TEST(I2cBus, AbsentAddressNaks) {
  I2cBus bus;
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x10, 0, out), I2cStatus::kAddressNak);
  EXPECT_EQ(bus.write_byte_data(0x10, 0, 1), I2cStatus::kAddressNak);
}

TEST(I2cBus, RegisterNakPropagates) {
  I2cBus bus;
  ScratchDevice dev;
  bus.attach(0x2E, &dev);
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 9, out), I2cStatus::kRegisterNak);
  EXPECT_EQ(bus.write_byte_data(0x2E, 3, 1), I2cStatus::kRegisterNak);  // read-only
}

TEST(I2cBus, BusFaultFailsEverything) {
  I2cBus bus;
  ScratchDevice dev;
  bus.attach(0x2E, &dev);
  bus.inject_bus_fault();
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kBusFault);
  EXPECT_EQ(bus.write_byte_data(0x2E, 0, 1), I2cStatus::kBusFault);
  bus.clear_bus_fault();
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kOk);
}

TEST(I2cBus, DetachRemovesDevice) {
  I2cBus bus;
  ScratchDevice dev;
  bus.attach(0x2E, &dev);
  bus.detach(0x2E);
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kAddressNak);
}

TEST(I2cBus, DeviceSeesExactlyTheTransfersThatReachIt) {
  // Each call's status is its whole outcome; the device sees the register
  // sequence and values of every transfer addressed to it, and nothing of
  // transfers that NAK at the address or die on a faulted bus.
  I2cBus bus;
  RecordingDevice dev;
  bus.attach(0x2E, &dev);
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kOk);
  EXPECT_EQ(out, 0xAA);
  EXPECT_EQ(bus.write_byte_data(0x2E, 1, 0x55), I2cStatus::kOk);
  EXPECT_EQ(bus.read_byte_data(0x30, 0, out), I2cStatus::kAddressNak);
  EXPECT_EQ(bus.write_byte_data(0x2E, 3, 0x01), I2cStatus::kRegisterNak);
  bus.inject_transient_bus_fault(1);
  EXPECT_EQ(bus.write_byte_data(0x2E, 1, 0x66), I2cStatus::kBusFault);
  EXPECT_EQ(bus.read_byte_data(0x2E, 1, out), I2cStatus::kOk);
  EXPECT_EQ(out, 0x55);

  using Access = RecordingDevice::Access;
  const std::vector<Access> expected = {{0, 0xAA, false}, {1, 0x55, true}, {3, 0x01, true},
                                        {1, 0x55, false}};
  EXPECT_EQ(dev.accesses, expected);
}

TEST(I2cBus, FailedReadLeavesOutUntouched) {
  I2cBus bus;
  ScratchDevice dev;
  bus.attach(0x2E, &dev);
  std::uint8_t out = 0x5A;
  EXPECT_EQ(bus.read_byte_data(0x10, 0, out), I2cStatus::kAddressNak);
  EXPECT_EQ(out, 0x5A);
  EXPECT_EQ(bus.read_byte_data(0x2E, 9, out), I2cStatus::kRegisterNak);
  EXPECT_EQ(out, 0x5A);
  bus.inject_bus_fault();
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kBusFault);
  EXPECT_EQ(out, 0x5A);
}

TEST(I2cBus, TransientFaultRecoversByItself) {
  I2cBus bus;
  ScratchDevice dev;
  bus.attach(0x2E, &dev);
  bus.inject_transient_bus_fault(2);
  EXPECT_TRUE(bus.faulted());
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kBusFault);
  EXPECT_EQ(bus.write_byte_data(0x2E, 1, 0x11), I2cStatus::kBusFault);
  // Glitch over: the third transfer succeeds with no clear call.
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kOk);
  EXPECT_FALSE(bus.faulted());
}

TEST(I2cBusDeath, DoubleAttachAborts) {
  I2cBus bus;
  ScratchDevice a;
  ScratchDevice b;
  bus.attach(0x2E, &a);
  EXPECT_DEATH(bus.attach(0x2E, &b), "in use");
}

TEST(I2cBus, DevicesLeaveAndJoinByAddress) {
  I2cBus bus;
  ScratchDevice a;
  ScratchDevice b;
  RecordingDevice c;
  bus.attach(0x2E, &a);
  bus.attach(0x2F, &b);
  bus.attach(0x30, &c);
  bus.detach(0x2E);
  std::uint8_t out = 0;
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kAddressNak);
  EXPECT_EQ(bus.write_byte_data(0x2F, 0, 0x12), I2cStatus::kOk);
  EXPECT_EQ(bus.read_byte_data(0x30, 0, out), I2cStatus::kOk);
  EXPECT_EQ(c.accesses.size(), 1u);
  bus.attach(0x2E, &a);
  EXPECT_EQ(bus.read_byte_data(0x2E, 0, out), I2cStatus::kOk);
  EXPECT_EQ(out, 0xAA);
}

TEST(I2cBusDeath, DeviceBeyondCapacityAborts) {
  I2cBus bus;
  ScratchDevice devs[I2cBus::kMaxDevices + 1];
  for (std::size_t i = 0; i < I2cBus::kMaxDevices; ++i) {
    bus.attach(static_cast<std::uint8_t>(0x20 + i), &devs[i]);
  }
  EXPECT_DEATH(bus.attach(0x7F, &devs[I2cBus::kMaxDevices]), "too many devices");
}

TEST(I2cBusDeath, EightBitAddressAborts) {
  I2cBus bus;
  ScratchDevice dev;
  EXPECT_DEATH(bus.attach(0x80, &dev), "7-bit");
}

}  // namespace
}  // namespace thermctl::hw
