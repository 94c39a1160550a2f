#include "core/two_level_window.hpp"

#include "common/assert.hpp"

namespace thermctl::core {

TwoLevelWindow::TwoLevelWindow(WindowConfig config)
    : level1_size_(static_cast<std::uint8_t>(config.level1_size)),
      level2_size_(static_cast<std::uint8_t>(config.level2_size)) {
  THERMCTL_ASSERT(config.level1_size >= 2 && config.level1_size % 2 == 0,
                  "level-one window must be even-sized and >= 2");
  THERMCTL_ASSERT(config.level2_size >= 2, "level-two FIFO must hold >= 2 rounds");
  THERMCTL_ASSERT(config.level1_size <= kMaxLevel1 && config.level2_size <= kMaxLevel2,
                  "window geometry exceeds the inline capacity");
}

void TwoLevelWindow::reset() {
  level1_fill_ = 0;
  level2_head_ = 0;
  level2_count_ = 0;
}

Celsius TwoLevelWindow::level2_front() const {
  THERMCTL_ASSERT(level2_count_ > 0, "level2_front() on empty FIFO");
  return Celsius{level2_[level2_head_]};
}

Celsius TwoLevelWindow::level2_rear() const {
  THERMCTL_ASSERT(level2_count_ > 0, "level2_rear() on empty FIFO");
  return Celsius{level2_[(level2_head_ + level2_count_ - 1) % level2_size_]};
}

std::optional<WindowRound> TwoLevelWindow::close_round() {
  // Round complete: Δt_L1 = sum(second half) − sum(first half).
  const std::size_t n = level1_size_;
  const std::size_t half = n / 2;
  double first = 0.0;
  double second = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = level1_[i];
    total += v;
    if (i < half) {
      first += v;
    } else {
      second += v;
    }
  }

  WindowRound round;
  round.level1_delta = CelsiusDelta{second - first};
  round.level1_average = Celsius{total / static_cast<double>(n)};

  // Push the round average into the FIFO (oldest evicted when full), then
  // read Δt_L2 = rear − front.
  const std::size_t cap = level2_size_;
  level2_[(level2_head_ + level2_count_) % cap] = round.level1_average.value();
  if (level2_count_ == cap) {
    level2_head_ = static_cast<std::uint8_t>((level2_head_ + 1) % cap);
  } else {
    ++level2_count_;
  }
  if (level2_count_ >= 2) {
    round.level2_delta = level2_rear() - level2_front();
    round.level2_valid = true;
  }

  level1_fill_ = 0;  // "cells ... cleared out for next round of sampling"
  return round;
}

}  // namespace thermctl::core
