// SMBus/i2c bus simulation.
//
// The paper connects the ADT7467 fan controller through an i2c link and
// drives it from a custom Linux driver. To keep that software layering real,
// the simulated driver talks to the simulated chip only through this bus —
// register reads/writes addressed by 7-bit device address, with NAK errors
// for absent devices or rejected registers. The bus keeps no record of its
// transfers: each call's status is the whole outcome, the retrying master
// counts attempts and retries (I2cErrorStats), and the attached device sees
// every register access that reached it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace thermctl::hw {

/// Result of an i2c transfer.
enum class I2cStatus : std::uint8_t {
  kOk,
  kAddressNak,   // no device at address
  kRegisterNak,  // device rejected the register offset
  kBusFault,     // injected electrical fault
};

/// Device-side interface: a chip that can be attached to the bus.
class I2cSlave {
 public:
  virtual ~I2cSlave() = default;

  /// Reads one register byte; nullopt => register NAK.
  virtual std::optional<std::uint8_t> read_register(std::uint8_t reg) = 0;

  /// Writes one register byte; false => register NAK (read-only/unknown).
  virtual bool write_register(std::uint8_t reg, std::uint8_t value) = 0;
};

class I2cBus {
 public:
  /// Devices one bus holds at once. They sit inline: a node's bus carries
  /// one chip, and a transfer finds it in the bus object itself.
  static constexpr std::size_t kMaxDevices = 4;

  /// Attaches `dev` at `address` (7-bit), at most kMaxDevices at once. The
  /// bus does not own the device.
  void attach(std::uint8_t address, I2cSlave* dev);
  void detach(std::uint8_t address);

  /// SMBus "read byte data".
  I2cStatus read_byte_data(std::uint8_t address, std::uint8_t reg, std::uint8_t& out);

  /// SMBus "write byte data".
  I2cStatus write_byte_data(std::uint8_t address, std::uint8_t reg, std::uint8_t value);

  /// Injects/clears a bus-level electrical fault (all transfers fail).
  void inject_bus_fault() { faulted_ = true; }
  void clear_bus_fault() { faulted_ = false; }

  /// Injects a transient glitch: the next `transfers` transfers fail with
  /// kBusFault, then the bus recovers on its own — the failure mode a
  /// retry-with-backoff master is designed to ride out.
  void inject_transient_bus_fault(int transfers) { transient_faults_ = transfers; }
  [[nodiscard]] bool faulted() const { return faulted_ || transient_faults_ > 0; }

 private:
  /// Consumes one transfer's worth of fault state; true if it failed.
  bool transfer_faulted();

  struct Attached {
    std::uint8_t address = 0;
    I2cSlave* dev = nullptr;
  };

  [[nodiscard]] I2cSlave* find(std::uint8_t address) const;

  std::array<Attached, kMaxDevices> devices_{};
  std::uint8_t device_count_ = 0;
  bool faulted_ = false;
  int transient_faults_ = 0;
};

}  // namespace thermctl::hw
