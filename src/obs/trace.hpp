// Structured decision tracing: bounded per-node binary event ring.
//
// Every control-loop decision the paper's evaluation reasons about — which
// window level supplied Δt, the Eq.(1) cell the selector jumped to, fan PWM
// writes and their i2c retries, tDVFS trigger/restore with the consistency
// counts that armed them, sensor-health classifications, fail-safe entry and
// exit — is recordable as a fixed-size POD event in a per-node ring. The ring
// is bounded (oldest events overwritten), allocation-free after construction,
// and single-writer: one node's controllers and bus all run on the engine
// thread that owns that node. Its storage is allocated and never filled, so
// a ring costs memory only for the pages its events have landed on.
//
// Cost model: emission sites go through THERMCTL_TRACE_* macros that reduce
// to one null-pointer test when tracing is wired off (the default — no ring
// attached), and to nothing at all when compiled out with
// -DTHERMCTL_TRACE_COMPILED_OUT. Sweep results are bit-identical with tracing
// on or off: tracing observes decisions, it never participates in them.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace thermctl::obs {

/// What a TraceEvent describes. Values are part of the on-disk format — add
/// at the end, never renumber.
enum class TraceEventType : std::uint8_t {
  kNone = 0,
  /// Completed two-level window round. a=level-1 average (°C),
  /// b=Δt_L1, c=Δt_L2; flag kLevel2Valid when the FIFO held ≥ 2 rounds.
  kWindowRound = 1,
  /// Mode-selector outcome for that round. i0=current index, i1=chosen
  /// (post-clamp) target index, a=raw i + c·Δt before clamping, b=the Δt the
  /// decision used, c=the mode value in the target cell (Eq.(1) cell hit).
  /// Flags: kChanged, kUsedLevel2 (Δt source = level-2).
  kModeDecision = 2,
  /// Fan PWM write attempt. a=from duty %, b=to duty %, i0=target array
  /// index. Flags: kWriteOk, kUsedLevel2.
  kFanRetarget = 3,
  /// tDVFS down-scale trigger. a=from GHz, b=to GHz, i0=rounds-above count
  /// that armed the trigger, i1=target array index. Flag kUsedLevel2 when
  /// the window's level-2 prediction pushed past the consistency floor.
  kTdvfsTrigger = 4,
  /// tDVFS restore to the original frequency. a=from GHz, b=to GHz,
  /// i0=rounds-below count that armed the restore.
  kTdvfsRestore = 5,
  /// Sensor-health classification of one reading (non-OK only, plus the
  /// first OK after a bad streak). a=raw reading, i0=SensorState.
  kSensorClassified = 6,
  /// Fan fail-safe cooling entered (confirmed sensor failure). a=commanded
  /// duty %.
  kFailsafeEnter = 7,
  /// Fan fail-safe exited (sensor recovered). i0=resume array index.
  kFailsafeExit = 8,
  /// tDVFS frequency hold entered. a=held GHz.
  kDvfsHoldEnter = 9,
  /// tDVFS hold exited.
  kDvfsHoldExit = 10,
  /// One retried i2c attempt. i0=attempt number (0-based), i1=I2cStatus of
  /// the failed attempt, a=backoff accounted (µs).
  kI2cRetry = 11,
  /// An i2c transfer failed after exhausting its retry budget. i1=I2cStatus.
  kI2cExhausted = 12,
  /// Control-plane power budget applied to this node. a=budget watts
  /// (<= 0 = uncapped), b=wall watts at application, i0=resulting cap kHz.
  /// Flag kChanged when the cap moved a p-state.
  kPlaneBudget = 13,
  /// Node reverted to autonomous control (coordinator stall or resignation).
  /// a=seconds since the coordinator was last heard.
  kPlaneFailsafeEnter = 14,
  /// Node rejoined its rack coordinator after a fail-safe. i0=coordinator
  /// epoch from the JoinAck.
  kPlaneFailsafeExit = 15,
  /// Policy parameter re-tune pushed down by the plane. i0=applied Pp.
  kPlanePolicyUpdate = 16,
  /// Watchdog alert rule crossed its threshold for its hold time.
  /// i0=rule index, i1=rack (-1 = fleet scope), a=observed value,
  /// b=threshold. Recorded on the fleet lane (ring 0).
  kAlertFire = 17,
  /// Previously firing alert dropped back under threshold. Same payload as
  /// kAlertFire, with a=value at clearing.
  kAlertClear = 18,
};

/// Which controller/plane emitted the event.
enum class TraceSubsystem : std::uint8_t {
  kNone = 0,
  kFan = 1,
  kTdvfs = 2,
  kIdle = 3,
  kEngine = 4,
  kI2c = 5,
  /// Hierarchical rack/room control plane (node agents).
  kPlane = 6,
  /// Online alert watchdog (fleet-scope events land on node 0's ring).
  kAlert = 7,
};

/// Flag bits (per-type meaning documented on the type).
enum TraceFlags : std::uint32_t {
  kTraceFlagNone = 0,
  kTraceFlagLevel2Valid = 1u << 0,
  kTraceFlagUsedLevel2 = 1u << 1,
  kTraceFlagChanged = 1u << 2,
  kTraceFlagWriteOk = 1u << 3,
  /// The raw i + c·Δt fell outside [0, N−1] and was clamped.
  kTraceFlagClamped = 1u << 4,
};

/// Fixed-size POD record; the ring stores these by value and the trace file
/// stores them verbatim.
struct TraceEvent {
  double t_s = 0.0;
  std::uint16_t node = 0;
  TraceEventType type = TraceEventType::kNone;
  TraceSubsystem subsystem = TraceSubsystem::kNone;
  std::uint32_t flags = 0;
  std::int64_t i0 = 0;
  std::int64_t i1 = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};
static_assert(sizeof(TraceEvent) == 56, "TraceEvent is an on-disk format; keep it packed");

[[nodiscard]] std::string_view to_string(TraceEventType type);
[[nodiscard]] std::string_view to_string(TraceSubsystem subsystem);

/// Bounded single-writer event buffer for one node.
class TraceRing {
 public:
  explicit TraceRing(std::uint16_t node, std::size_t capacity = 1u << 14);

  [[nodiscard]] std::uint16_t node() const { return node_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const;
  /// Total events ever emitted, including overwritten ones.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return emitted_ > capacity_ ? emitted_ - capacity_ : 0;
  }

  /// Current sim time for emitters without their own clock (the i2c layer).
  /// Controllers set this on tick entry.
  void set_time_s(double t_s) { now_s_ = t_s; }
  [[nodiscard]] double time_s() const { return now_s_; }

  /// Records one event, stamping node (always) and time (when ev.t_s is
  /// left 0 the ring's clock is used).
  void emit(TraceEvent ev);

  /// Events in emission order, oldest first (copies out of the ring).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Cursor-based incremental read for the streaming spiller. `cursor` is an
  /// absolute emission index (0 on the first call, then the returned value).
  /// Appends up to `max_events` events at-or-after the cursor to `out`
  /// (0 = no limit) and returns the advanced cursor. Events the ring
  /// overwrote before they could be read are counted into `lost` — that is
  /// the spiller's true loss, distinct from dropped() which counts every
  /// overwrite whether or not a reader got there first.
  [[nodiscard]] std::uint64_t read_new(std::uint64_t cursor, std::size_t max_events,
                                       std::vector<TraceEvent>& out,
                                       std::uint64_t& lost) const;

  void clear();

 private:
  struct SlotsDeleter {
    void operator()(TraceEvent* slots) const { ::operator delete(slots); }
  };

  std::uint16_t node_;
  std::size_t capacity_;
  // Raw storage for capacity_ events: a slot holds an event only once emit
  // has placed one there, and only emitted slots are ever read.
  std::unique_ptr<TraceEvent[], SlotsDeleter> slots_;
  std::size_t head_ = 0;  // next write position
  std::uint64_t emitted_ = 0;
  double now_s_ = 0.0;
};

/// Per-node rings plus run-level bookkeeping for one experiment run.
class RunTrace {
 public:
  explicit RunTrace(std::size_t node_count, std::size_t ring_capacity = 1u << 14);

  [[nodiscard]] std::size_t node_count() const { return rings_.size(); }
  [[nodiscard]] TraceRing& ring(std::size_t node) { return rings_[node]; }
  [[nodiscard]] const TraceRing& ring(std::size_t node) const { return rings_[node]; }

  /// All nodes' events merged into one stream, ordered by (time, node,
  /// emission order) — stable and deterministic.
  [[nodiscard]] std::vector<TraceEvent> merged_events() const;

  [[nodiscard]] std::uint64_t total_emitted() const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  /// Ring-wrap overwrites per node, indexable by node id — lets post-hoc
  /// analyses spot which nodes' traces are truncated even when the totals
  /// look survivable.
  [[nodiscard]] std::vector<std::uint64_t> dropped_by_node() const;

 private:
  std::vector<TraceRing> rings_;
};

}  // namespace thermctl::obs

#ifdef THERMCTL_TRACE_COMPILED_OUT
#define THERMCTL_TRACE_EMIT(ring_ptr, ev_expr) \
  do {                                         \
  } while (false)
#define THERMCTL_TRACE_SET_TIME(ring_ptr, t_s) \
  do {                                         \
  } while (false)
#else
/// Emission seam: one pointer test when no ring is attached, one branch +
/// struct store when one is. `ev_expr` is an expression yielding a
/// TraceEvent — parenthesize designated-initializer literals at the call
/// site so their commas survive the preprocessor.
#define THERMCTL_TRACE_EMIT(ring_ptr, ev_expr) \
  do {                                         \
    if ((ring_ptr) != nullptr) {               \
      (ring_ptr)->emit(ev_expr);               \
    }                                          \
  } while (false)
#define THERMCTL_TRACE_SET_TIME(ring_ptr, t_s) \
  do {                                         \
    if ((ring_ptr) != nullptr) {               \
      (ring_ptr)->set_time_s(t_s);             \
    }                                          \
  } while (false)
#endif
