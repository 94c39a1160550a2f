// The decision log: one compact record per controller decision.
//
// Every fan retarget and every tDVFS or idle-injection move goes from one
// cell of an Eq. (1) array to another, and every cell holds a mode copied
// from the family's fixed list of physical modes (control_array.hpp). So a
// decision is fully described by its sim time, the from- and to-mode indices
// into the family's available_modes() and two flags. Each controller family
// keeps one log for all its nodes. Records land in tick order, and each
// node's records are linked into a chain, so a node reads its own decisions
// back in the order they were made. A node holds only a 12-byte
// DecisionChain (head, tail, count).
//
// A record is 8 bytes: the link, the two mode indices and the flags. The
// time is not in it. A whole family ticks at one instant, so the log keeps a
// side table of time runs, each the index of the first record made at a
// time and that time; a record's time is the run whose first index is the
// greatest one <= its own. A bank tick in which N nodes decide costs
// N × 8 B plus one 16-byte run. Appends must come in time order.
//
// Records live in chunks that never move: chunk k holds 64·2^k records, so
// growth never copies, a record keeps its address for the log's life, and
// the untouched end of the newest chunk is never paged in. The first chunk
// is allocated on the first append, so a family that never decides costs
// nothing.
//
// Decoding gives back the values the controller acted on, bit for bit: the
// time is SimTime::from_us(us).seconds() and a mode is available[k], the
// very double the array's cell was copied from. A DecisionView decodes one
// node's chain into its technique's event type.
//
// Appends come from the family's serial tick (a ControlBank's, or a
// standalone controller's own); the log takes no lock.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/sim_time.hpp"

namespace thermctl::core {

/// The link that ends a chain, and the head and tail of an empty one.
inline constexpr std::uint32_t kNoDecision = 0xFFFF'FFFFu;

/// One controller decision; its time is in the log's run table.
struct DecisionRecord {
  std::uint32_t next;  // the node's next record, or kNoDecision
  std::uint8_t from;   // index into the family's available_modes()
  std::uint8_t to;     // likewise
  std::uint8_t flags;  // DecisionLog::kLevel2 | DecisionLog::kRestore
};
static_assert(sizeof(DecisionRecord) == 8, "a decision record is 8 bytes");
// Chunks are allocated uninitialized: their pages are touched only as
// records land.
static_assert(std::is_trivial_v<DecisionRecord>, "chunks are not zeroed");

/// One node's records in a family's log.
struct DecisionChain {
  std::uint32_t head = kNoDecision;
  std::uint32_t tail = kNoDecision;
  std::uint32_t count = 0;
};

class DecisionLog {
 public:
  /// A mode index is one byte: a family lists at most this many modes.
  static constexpr std::size_t kMaxModes = 256;
  /// The move went as far as the level-two delta said (ModeDecision's
  /// used_level2).
  static constexpr std::uint8_t kLevel2 = 1u << 0;
  /// A threshold technique's return to cell 0.
  static constexpr std::uint8_t kRestore = 1u << 1;

  DecisionLog() = default;
  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  /// Records from `first` on, up to the next run's first, were made at `us`.
  struct TimeRun {
    std::uint32_t first;
    std::int64_t us;
  };

  /// Appends a decision at `when` from mode `from` to mode `to` (indices
  /// into the family's available_modes()) and links it to the end of
  /// `chain`. `when` is never earlier than the last append's.
  void append(DecisionChain& chain, SimTime when, std::size_t from, std::size_t to,
              std::uint8_t flags);

  /// Record `i` (0-based, in append order).
  [[nodiscard]] const DecisionRecord& operator[](std::uint32_t i) const {
    THERMCTL_ASSERT(i < size_, "decision record out of range");
    const Slot s = slot(i);
    return chunks_[s.chunk][s.offset];
  }

  /// The sim time record `i` was made at.
  [[nodiscard]] SimTime when(std::uint32_t i) const {
    THERMCTL_ASSERT(i < size_, "decision record out of range");
    const auto run = std::upper_bound(runs_.begin(), runs_.end(), i,
                                      [](std::uint32_t k, const TimeRun& r) { return k < r.first; });
    return SimTime::from_us(std::prev(run)->us);
  }

  /// Records appended, over every node.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Distinct times the records were made at.
  [[nodiscard]] std::size_t time_runs() const { return runs_.size(); }

  /// Bytes the log holds: every chunk's full capacity, the chunk table and
  /// the run table.
  [[nodiscard]] std::size_t memory_bytes() const {
    return capacity_ * sizeof(DecisionRecord) +
           chunks_.capacity() * sizeof(std::unique_ptr<DecisionRecord[]>) +
           runs_.capacity() * sizeof(TimeRun);
  }

 private:
  static constexpr unsigned kFirstChunkLog2 = 6;  // 64 records, 1 KiB

  struct Slot {
    std::size_t chunk;
    std::size_t offset;
  };

  /// Chunk k starts at record 64·(2^k − 1).
  [[nodiscard]] static Slot slot(std::uint32_t i) {
    const std::uint64_t first = std::uint64_t{1} << kFirstChunkLog2;
    const std::size_t chunk =
        static_cast<std::size_t>(std::bit_width((std::uint64_t{i} >> kFirstChunkLog2) + 1) - 1);
    return {chunk, static_cast<std::size_t>(std::uint64_t{i} + first - (first << chunk))};
  }

  [[nodiscard]] DecisionRecord& at(std::uint32_t i) {
    const Slot s = slot(i);
    return chunks_[s.chunk][s.offset];
  }

  std::vector<std::unique_ptr<DecisionRecord[]>> chunks_;
  std::vector<TimeRun> runs_;  // ascending in both first and us
  std::size_t capacity_ = 0;   // records the chunks hold
  std::uint32_t size_ = 0;
};

/// A reader's place in one node's chain: the last record it has read and
/// how many it has read. The default cursor has read nothing.
struct DecisionCursor {
  std::uint32_t last = kNoDecision;
  std::uint32_t seen = 0;
};

/// One node's decisions, decoded into `Event` values in append order.
/// `Event` provides `static Event decode(SimTime at, double from, double to,
/// std::uint8_t flags)`. The view reads the log it was made from and the
/// family's mode list, both of which outlive every technique of the family;
/// it sees the records the node had when it was made.
template <typename Event>
class DecisionView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Event;

    iterator() = default;

    Event operator*() const { return decode(*log_, modes_, at_); }
    iterator& operator++() {
      at_ = at_ == last_ ? kNoDecision : (*log_)[at_].next;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.at_ == b.at_; }

   private:
    friend class DecisionView;
    iterator(const DecisionLog* log, const double* modes, std::uint32_t at, std::uint32_t last)
        : log_(log), modes_(modes), at_(at), last_(last) {}

    const DecisionLog* log_ = nullptr;
    const double* modes_ = nullptr;
    std::uint32_t at_ = kNoDecision;
    std::uint32_t last_ = kNoDecision;  // the view's tail: iteration stops there
  };

  DecisionView(const DecisionLog& log, std::span<const double> modes, DecisionChain chain)
      : log_(&log), modes_(modes.data()), chain_(chain) {}

  [[nodiscard]] std::size_t size() const { return chain_.count; }
  [[nodiscard]] bool empty() const { return chain_.count == 0; }
  [[nodiscard]] Event front() const {
    THERMCTL_ASSERT(!empty(), "front() of an empty decision view");
    return decode(*log_, modes_, chain_.head);
  }
  [[nodiscard]] Event back() const {
    THERMCTL_ASSERT(!empty(), "back() of an empty decision view");
    return decode(*log_, modes_, chain_.tail);
  }
  [[nodiscard]] iterator begin() const {
    return {log_, modes_, empty() ? kNoDecision : chain_.head, chain_.tail};
  }
  [[nodiscard]] iterator end() const { return {log_, modes_, kNoDecision, chain_.tail}; }

  /// A cursor that has read every record this view holds.
  [[nodiscard]] DecisionCursor cursor() const { return {chain_.tail, chain_.count}; }

  /// The records after `cursor`, which must come from a view of the same
  /// node.
  [[nodiscard]] DecisionView after(DecisionCursor cursor) const {
    THERMCTL_ASSERT(cursor.seen <= chain_.count, "cursor from another chain");
    DecisionView rest = *this;
    rest.chain_.count -= cursor.seen;
    if (cursor.last != kNoDecision) {
      rest.chain_.head = (*log_)[cursor.last].next;
    }
    return rest;
  }

 private:
  static Event decode(const DecisionLog& log, const double* modes, std::uint32_t i) {
    const DecisionRecord& r = log[i];
    return Event::decode(log.when(i), modes[r.from], modes[r.to], r.flags);
  }

  const DecisionLog* log_;
  const double* modes_;
  DecisionChain chain_;
};

}  // namespace thermctl::core
