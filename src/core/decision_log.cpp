#include "core/decision_log.hpp"

namespace thermctl::core {

void DecisionLog::append(DecisionChain& chain, SimTime when, std::size_t from, std::size_t to,
                         std::uint8_t flags) {
  THERMCTL_ASSERT(from < kMaxModes && to < kMaxModes, "a decision's mode index exceeds a byte");
  THERMCTL_ASSERT(size_ < kNoDecision, "decision log full");
  const std::uint32_t i = size_;
  if (i == capacity_) {
    // Uninitialized on purpose: a page is touched only when a record lands
    // in it.
    const std::size_t records = std::size_t{1} << (kFirstChunkLog2 + chunks_.size());
    chunks_.emplace_back(new DecisionRecord[records]);
    capacity_ += records;
  }
  if (runs_.empty() || runs_.back().us != when.us()) {
    THERMCTL_ASSERT(runs_.empty() || runs_.back().us < when.us(),
                    "a decision is earlier than the log's last");
    runs_.push_back({i, when.us()});
  }
  at(i) = DecisionRecord{kNoDecision, static_cast<std::uint8_t>(from),
                         static_cast<std::uint8_t>(to), flags};
  if (chain.count == 0) {
    chain.head = i;
  } else {
    at(chain.tail).next = i;
  }
  chain.tail = i;
  ++chain.count;
  ++size_;
}

}  // namespace thermctl::core
