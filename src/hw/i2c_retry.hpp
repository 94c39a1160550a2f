// Retry-with-bounded-backoff wrapper around the i2c bus.
//
// Real SMBus links drop transfers: electrical glitches surface as bus faults,
// a busy or resetting device NAKs its own address. Production drivers
// (i2c-core's adapter retries, lm-sensors fault paths) retry such transfers a
// bounded number of times with a short backoff before reporting failure
// upward. This wrapper gives the simulated ADT7467 driver the same posture:
// transient faults are absorbed inside one transfer call, persistent faults
// exhaust the budget and fail fast, and every outcome is counted, so
// fault-event totals can flow into the cluster metrics. A master talks to
// one device address, as the driver that owns it does.
#pragma once

#include <cstdint>

#include "hw/i2c.hpp"
#include "obs/trace.hpp"

namespace thermctl::hw {

struct I2cRetryConfig {
  /// Total attempts per transfer (first try included). 1 disables retry.
  int max_attempts = 3;
  /// Backoff before the first retry; doubles each further retry.
  std::uint64_t base_backoff_us = 100;
  /// Cap on any single backoff interval.
  std::uint64_t max_backoff_us = 2000;
};

/// One device's transfer outcome counters.
struct I2cErrorStats {
  std::uint64_t transfers = 0;      // transfer calls (not attempts)
  std::uint64_t retries = 0;        // extra attempts beyond the first
  std::uint64_t naks = 0;           // address-NAK attempt outcomes
  std::uint64_t register_naks = 0;  // register-NAK outcomes (never retried)
  std::uint64_t bus_faults = 0;     // bus-fault attempt outcomes
  std::uint64_t exhausted = 0;      // transfers that failed after all attempts
  std::uint64_t backoff_us = 0;     // total backoff delay accounted
};

class RetryingI2cMaster {
 public:
  /// A master for the device at `address` on `bus`.
  RetryingI2cMaster(I2cBus& bus, std::uint8_t address, I2cRetryConfig config = {});

  /// SMBus transfers to the device with the retry budget applied. On
  /// failure `out` is left untouched (same contract as the raw bus).
  I2cStatus read_byte_data(std::uint8_t reg, std::uint8_t& out);
  I2cStatus write_byte_data(std::uint8_t reg, std::uint8_t value);

  [[nodiscard]] const I2cErrorStats& stats() const { return stats_; }

  [[nodiscard]] const I2cRetryConfig& config() const { return config_; }
  [[nodiscard]] I2cBus& bus() { return bus_; }

  /// Attaches a decision-trace ring (nullptr detaches). Retried attempts and
  /// exhausted transfers are then emitted with the ring's current sim time —
  /// the bus has no clock of its own, so whoever drives the node's timeline
  /// keeps the ring's clock fresh (controllers do, on every tick).
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

 private:
  /// True when `status` is worth another attempt: bus faults and address
  /// NAKs look transient; a register NAK is a deterministic protocol
  /// rejection and retrying it would just repeat the answer.
  static bool retryable(I2cStatus status);

  /// Tracks the outcome of one attempt and, for retryable failures with
  /// budget left, accounts the capped-exponential backoff. Returns true when
  /// another attempt should be made.
  bool note_attempt(I2cStatus status, int attempt);

  I2cBus& bus_;
  std::uint8_t address_;
  I2cRetryConfig config_;
  I2cErrorStats stats_;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace thermctl::hw
