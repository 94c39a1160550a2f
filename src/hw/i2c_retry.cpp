#include "hw/i2c_retry.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace thermctl::hw {

RetryingI2cMaster::RetryingI2cMaster(I2cBus& bus, std::uint8_t address, I2cRetryConfig config)
    : bus_(bus), address_(address), config_(config) {
  THERMCTL_ASSERT(config_.max_attempts >= 1, "need at least one attempt");
}

bool RetryingI2cMaster::retryable(I2cStatus status) {
  return status == I2cStatus::kBusFault || status == I2cStatus::kAddressNak;
}

bool RetryingI2cMaster::note_attempt(I2cStatus status, int attempt) {
  switch (status) {
    case I2cStatus::kOk:
      return false;
    case I2cStatus::kAddressNak:
      ++stats_.naks;
      break;
    case I2cStatus::kRegisterNak:
      ++stats_.register_naks;
      break;
    case I2cStatus::kBusFault:
      ++stats_.bus_faults;
      break;
  }
  if (!retryable(status) || attempt + 1 >= config_.max_attempts) {
    ++stats_.exhausted;
    THERMCTL_TRACE_EMIT(trace_, (obs::TraceEvent{.type = obs::TraceEventType::kI2cExhausted,
                                                 .subsystem = obs::TraceSubsystem::kI2c,
                                                 .i0 = attempt,
                                                 .i1 = static_cast<std::int64_t>(status)}));
    return false;
  }
  ++stats_.retries;
  // Capped exponential backoff: base, 2*base, 4*base, ... (accounted, not
  // slept — the simulation has no wall clock to block).
  const std::uint64_t shift = static_cast<std::uint64_t>(attempt);
  std::uint64_t delay = shift < 63 ? config_.base_backoff_us << shift : config_.max_backoff_us;
  delay = std::min(delay, config_.max_backoff_us);
  stats_.backoff_us += delay;
  THERMCTL_TRACE_EMIT(trace_, (obs::TraceEvent{.type = obs::TraceEventType::kI2cRetry,
                                               .subsystem = obs::TraceSubsystem::kI2c,
                                               .i0 = attempt,
                                               .i1 = static_cast<std::int64_t>(status),
                                               .a = static_cast<double>(delay)}));
  return true;
}

I2cStatus RetryingI2cMaster::read_byte_data(std::uint8_t reg, std::uint8_t& out) {
  ++stats_.transfers;
  I2cStatus status = I2cStatus::kOk;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    status = bus_.read_byte_data(address_, reg, out);
    if (!note_attempt(status, attempt)) {
      break;
    }
  }
  return status;
}

I2cStatus RetryingI2cMaster::write_byte_data(std::uint8_t reg, std::uint8_t value) {
  ++stats_.transfers;
  I2cStatus status = I2cStatus::kOk;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    status = bus_.write_byte_data(address_, reg, value);
    if (!note_attempt(status, attempt)) {
      break;
    }
  }
  return status;
}

}  // namespace thermctl::hw
