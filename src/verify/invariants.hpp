// Runtime invariant checking — the verification layer's property harness.
//
// The paper's machinery has properties that hold by construction and must
// keep holding under every policy, workload and fault schedule:
//
//  * thermal control array (§3.2.2, Eq. (1)): cells non-descending in
//    cooling effectiveness, g1 pinned to the least effective physical mode,
//    gN to the most effective, cells [n_p, N] all gN, and n_p itself equal
//    to Eq. (1)'s value — after construction AND after every set_policy;
//  * mode selector (§3.2.2): the chosen target always lands in [0, N−1],
//    and a decision attributed to level two really means level one produced
//    no index change and the level-two FIFO was valid;
//  * fan-preferred coordination (§4.3): tDVFS is the performance-costly
//    technique, so a frequency down-trigger is only legitimate when the
//    round-average temperature actually exceeded the threshold — i.e. the
//    fan (which shares the same sensor and Pp) had its chance first;
//  * RC-network sanity: die temperatures stay finite, inside a physical
//    envelope, and never jump more than a bounded amount per sample period.
//
// The checker is an observer: it reads controllers and nodes after each
// sampling tick and never actuates, so an armed run is bit-identical to an
// unarmed one. Arming is off by default and costs nothing when off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/control_array.hpp"
#include "core/decision_log.hpp"
#include "core/experiment.hpp"
#include "core/mode_selector.hpp"

namespace thermctl::verify {

enum class InvariantKind : std::uint8_t {
  kArrayOrder,           // cells not non-descending in effectiveness
  kArrayPins,            // g1/gN boundary pins broken
  kArrayFill,            // cell value not a physical mode, or n_p wrong
  kSelectorRange,        // target index outside [0, N−1]
  kSelectorAttribution,  // level-2 attribution without a level-1 no-change
  kCoordination,         // tDVFS down-trigger without a hot round average
  kRcFinite,             // non-finite die temperature
  kRcStepDelta,          // per-sample die-temperature jump above bound
  kRcEnvelope,           // die temperature outside the physical envelope
  kActuationRange,       // actuator command outside its physical bounds
  kStateMachine,         // controller state-machine contract broken
};

[[nodiscard]] const char* to_string(InvariantKind kind);

struct InvariantViolation {
  InvariantKind kind{};
  double time_s = 0.0;
  std::size_t node = 0;
  std::string message;
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;
  /// Total violations found (>= violations.size() once capped).
  std::uint64_t violation_count = 0;
  /// Individual invariant evaluations performed.
  std::uint64_t checks = 0;

  [[nodiscard]] bool ok() const { return violation_count == 0; }
  void add(InvariantKind kind, double time_s, std::size_t node, std::string message,
           std::size_t cap);
  void merge(const InvariantReport& other);
  [[nodiscard]] std::string to_string() const;
};

/// Structural invariants of a control-array fill, given the raw cells. The
/// span overload exists so tests can feed deliberately corrupted fills.
void check_control_array_cells(std::span<const double> cells,
                               std::span<const double> available, std::size_t np,
                               core::PolicyParam pp, InvariantReport& report,
                               double time_s = 0.0, std::size_t node = 0,
                               std::size_t cap = 64);

/// Same checks against a live array.
void check_control_array(const core::ThermalControlArray& array, InvariantReport& report,
                         double time_s = 0.0, std::size_t node = 0, std::size_t cap = 64);

/// Selector-decision sanity: target in range, level-2 attribution legal.
void check_selector_decision(const core::ModeSelector& selector,
                             const core::ModeDecision& decision, std::size_t current,
                             const core::WindowRound& round, std::size_t array_size,
                             InvariantReport& report, double time_s = 0.0,
                             std::size_t node = 0, std::size_t cap = 64);

/// Thread-safe violation accumulator shared by every run armed from one
/// config (the oracle reuses a config across serial and parallel passes).
class InvariantLog {
 public:
  void append(const InvariantReport& report) {
    const std::lock_guard<std::mutex> lock{mu_};
    merged_.merge(report);
  }
  [[nodiscard]] InvariantReport snapshot() const {
    const std::lock_guard<std::mutex> lock{mu_};
    return merged_;
  }
  [[nodiscard]] bool ok() const { return snapshot().ok(); }

 private:
  mutable std::mutex mu_;
  InvariantReport merged_;
};

/// Per-run checker: ticks at the sampling period (registered after every
/// controller, so it observes post-decision state) and flushes its report
/// into the shared log when the rig tears down.
class RunInvariantChecker {
 public:
  RunInvariantChecker(const core::RigView& rig, std::shared_ptr<InvariantLog> log);
  ~RunInvariantChecker();

  RunInvariantChecker(const RunInvariantChecker&) = delete;
  RunInvariantChecker& operator=(const RunInvariantChecker&) = delete;

  void tick(SimTime now);

  [[nodiscard]] const InvariantReport& report() const { return report_; }

 private:
  std::shared_ptr<InvariantLog> log_;
  cluster::Cluster* cluster_ = nullptr;
  const core::ControlBank* bank_ = nullptr;  // null when no dynamic fan or tDVFS runs
  std::vector<std::optional<double>> last_die_;
  // What the checker last saw of each bank node's techniques.
  struct Seen {
    int fan_pp = -1;
    int tdvfs_pp = -1;
    core::DecisionCursor tdvfs_events;
  };
  std::vector<Seen> seen_;
  InvariantReport report_;
};

/// Arms invariant checking on a config: every run of it builds a fresh
/// RunInvariantChecker whose findings accumulate in the returned log. Chains
/// with any observer already installed. The armed run's RunResult stays
/// bit-identical to an unarmed run.
[[nodiscard]] std::shared_ptr<InvariantLog> arm_invariants(core::ExperimentConfig& config);

}  // namespace thermctl::verify
