// Linux-driver equivalent for the ADT7467 fan controller.
//
// The paper's authors "developed a Linux device driver that regulates fan
// speed using the i2c protocol". This class is that driver's simulation-side
// twin: it probes the chip's identification registers, switches PWM1 into
// manual behaviour, and exposes duty/temperature/RPM operations — all
// implemented as i2c register transactions, never as direct object access.
// Errors surface as status codes the way -EIO would from a real driver.
// Transfers go through a retry-with-backoff master, so transient bus glitches
// are absorbed below the driver API and counted in `io_stats()`.
#pragma once

#include <cstdint>
#include <optional>

#include "common/units.hpp"
#include "hw/adt7467.hpp"
#include "hw/i2c.hpp"
#include "hw/i2c_retry.hpp"

namespace thermctl::sysfs {

enum class DriverStatus : std::uint8_t {
  kOk,
  kProbeFailed,  // wrong/absent chip at the address
  kIoError,      // bus NAK / fault during a transaction
};

class Adt7467Driver {
 public:
  /// Typical ADT7467 SMBus address.
  static constexpr std::uint8_t kDefaultAddress = 0x2E;

  Adt7467Driver(hw::I2cBus& bus, std::uint8_t address = kDefaultAddress,
                hw::I2cRetryConfig retry = {});

  /// Verifies device/company IDs and switches PWM1 to manual behaviour.
  /// Must succeed before the control operations are used.
  DriverStatus probe();
  [[nodiscard]] bool probed() const { return probed_; }

  /// Commands a manual duty cycle (the dynamic-control actuation path).
  DriverStatus set_duty(DutyCycle duty);

  /// Reads back the duty the chip is driving.
  DriverStatus read_duty(DutyCycle& out);

  /// Reads the remote-diode temperature (1 °C register resolution).
  DriverStatus read_temperature(Celsius& out);

  /// Reads the fan tach and converts to RPM (nullopt RPM = stalled).
  DriverStatus read_rpm(std::optional<Rpm>& out);

  /// Restores the chip's automatic (Fig. 1 static curve) behaviour — used
  /// when handing control back to the "traditional" policy.
  DriverStatus set_automatic_mode();
  /// Re-enters manual behaviour (duty writes are only legal here).
  DriverStatus set_manual_mode();

  /// Programs the automatic-curve parameters (PWMmin / Tmin / Trange).
  DriverStatus configure_auto_curve(DutyCycle pwm_min, Celsius tmin, CelsiusDelta trange);

  /// Caps the automatic curve's output (PWM1_MAX) — how the experiments
  /// emulate less powerful fans under the traditional policy.
  DriverStatus set_max_duty(DutyCycle max_duty);

  /// Transfer/retry/fault counters for this driver's device address.
  [[nodiscard]] const hw::I2cErrorStats& io_stats() const { return master_.stats(); }

  /// Attaches a decision-trace ring to the underlying retrying master so bus
  /// retries/exhaustions show up on the node's timeline (nullptr detaches).
  void set_trace(obs::TraceRing* trace) { master_.set_trace(trace); }

 private:
  DriverStatus read_reg(std::uint8_t reg, std::uint8_t& out);
  DriverStatus write_reg(std::uint8_t reg, std::uint8_t value);

  hw::RetryingI2cMaster master_;
  bool probed_ = false;
};

}  // namespace thermctl::sysfs
