#include "hw/i2c_retry.hpp"

#include <gtest/gtest.h>

namespace thermctl::hw {
namespace {

/// Minimal device for retry-path tests (register 1 read-only mirrors reg
/// 0). It counts the accesses that reach it, answered or rejected.
class EchoDevice final : public I2cSlave {
 public:
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override {
    ++reads;
    if (reg >= 2) {
      return std::nullopt;
    }
    return value_;
  }
  bool write_register(std::uint8_t reg, std::uint8_t value) override {
    ++writes;
    if (reg != 0) {
      return false;
    }
    value_ = value;
    return true;
  }

  int reads = 0;
  int writes = 0;

 private:
  std::uint8_t value_ = 0x7E;
};

struct RetryRig {
  I2cBus bus;
  EchoDevice dev;
  RetryingI2cMaster master{bus, 0x2E};

  RetryRig() { bus.attach(0x2E, &dev); }
};

TEST(RetryingI2cMaster, CleanTransfersCostOneAttempt) {
  RetryRig rig;
  std::uint8_t out = 0;
  EXPECT_EQ(rig.master.read_byte_data(0, out), I2cStatus::kOk);
  EXPECT_EQ(out, 0x7E);
  EXPECT_EQ(rig.master.write_byte_data(0, 0x11), I2cStatus::kOk);
  const I2cErrorStats& s = rig.master.stats();
  EXPECT_EQ(s.transfers, 2u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.backoff_us, 0u);
}

TEST(RetryingI2cMaster, TransientBusFaultIsAbsorbed) {
  RetryRig rig;
  rig.bus.inject_transient_bus_fault(2);  // budget is 3 attempts
  std::uint8_t out = 0;
  EXPECT_EQ(rig.master.read_byte_data(0, out), I2cStatus::kOk);
  EXPECT_EQ(out, 0x7E);
  const I2cErrorStats& s = rig.master.stats();
  EXPECT_EQ(s.transfers, 1u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.bus_faults, 2u);
  EXPECT_EQ(s.exhausted, 0u);
  // base + 2*base backoff before the two retries.
  EXPECT_EQ(s.backoff_us, 100u + 200u);
}

TEST(RetryingI2cMaster, PersistentFaultExhaustsBudget) {
  RetryRig rig;
  rig.bus.inject_bus_fault();
  std::uint8_t out = 0x42;
  EXPECT_EQ(rig.master.read_byte_data(0, out), I2cStatus::kBusFault);
  EXPECT_EQ(out, 0x42);  // untouched, same contract as the raw bus
  const I2cErrorStats& s = rig.master.stats();
  EXPECT_EQ(s.transfers, 1u);
  EXPECT_EQ(s.retries, 2u);    // attempts 2 and 3
  EXPECT_EQ(s.bus_faults, 3u);
  EXPECT_EQ(s.exhausted, 1u);
  // Three attempts, each faulted, and none reached the device: the budget
  // bounds the bus traffic.
  EXPECT_EQ(rig.dev.reads, 0);
  rig.bus.clear_bus_fault();
  EXPECT_EQ(rig.master.read_byte_data(0, out), I2cStatus::kOk);
  EXPECT_EQ(rig.dev.reads, 1);
  EXPECT_EQ(s.transfers, 2u);
  EXPECT_EQ(s.bus_faults, 3u);
}

TEST(RetryingI2cMaster, AddressNakIsRetried) {
  RetryRig rig;
  RetryingI2cMaster master{rig.bus, 0x10};  // nothing answers there
  std::uint8_t out = 0;
  EXPECT_EQ(master.read_byte_data(0, out), I2cStatus::kAddressNak);
  const I2cErrorStats& s = master.stats();
  EXPECT_EQ(s.naks, 3u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.exhausted, 1u);
}

TEST(RetryingI2cMaster, RegisterNakFailsFast) {
  // A register NAK is the device *answering* — retrying would just repeat
  // the same deterministic rejection.
  RetryRig rig;
  EXPECT_EQ(rig.master.write_byte_data(1, 0x00), I2cStatus::kRegisterNak);
  const I2cErrorStats& s = rig.master.stats();
  EXPECT_EQ(s.register_naks, 1u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.exhausted, 1u);
  EXPECT_EQ(rig.dev.writes, 1);  // one attempt reached the device
}

TEST(RetryingI2cMaster, BackoffIsCapped) {
  I2cBus bus;
  I2cRetryConfig cfg;
  cfg.max_attempts = 8;
  cfg.base_backoff_us = 100;
  cfg.max_backoff_us = 500;
  RetryingI2cMaster master{bus, 0x2E, cfg};
  bus.inject_bus_fault();
  std::uint8_t out = 0;
  EXPECT_EQ(master.read_byte_data(0, out), I2cStatus::kBusFault);
  const I2cErrorStats& s = master.stats();
  EXPECT_EQ(s.retries, 7u);
  // 100 + 200 + 400 + 500 + 500 + 500 + 500: capped after the third retry.
  EXPECT_EQ(s.backoff_us, 2700u);
}

TEST(RetryingI2cMaster, SingleAttemptConfigDisablesRetry) {
  I2cBus bus;
  EchoDevice dev;
  bus.attach(0x2E, &dev);
  RetryingI2cMaster master{bus, 0x2E, I2cRetryConfig{.max_attempts = 1}};
  bus.inject_transient_bus_fault(1);
  std::uint8_t out = 0;
  EXPECT_EQ(master.read_byte_data(0, out), I2cStatus::kBusFault);
  EXPECT_EQ(master.stats().retries, 0u);
  EXPECT_EQ(master.stats().exhausted, 1u);
}

TEST(RetryingI2cMasterDeath, RejectsZeroAttempts) {
  I2cBus bus;
  EXPECT_DEATH(RetryingI2cMaster(bus, 0x2E, I2cRetryConfig{.max_attempts = 0}), "attempt");
}

}  // namespace
}  // namespace thermctl::hw
