#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/node.hpp"

namespace thermctl::verify {

const char* to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kArrayOrder:
      return "array-order";
    case InvariantKind::kArrayPins:
      return "array-pins";
    case InvariantKind::kArrayFill:
      return "array-fill";
    case InvariantKind::kSelectorRange:
      return "selector-range";
    case InvariantKind::kSelectorAttribution:
      return "selector-attribution";
    case InvariantKind::kCoordination:
      return "coordination";
    case InvariantKind::kRcFinite:
      return "rc-finite";
    case InvariantKind::kRcStepDelta:
      return "rc-step-delta";
    case InvariantKind::kRcEnvelope:
      return "rc-envelope";
    case InvariantKind::kActuationRange:
      return "actuation-range";
    case InvariantKind::kStateMachine:
      return "state-machine";
  }
  return "unknown";
}

void InvariantReport::add(InvariantKind kind, double time_s, std::size_t node,
                          std::string message, std::size_t cap) {
  ++violation_count;
  if (violations.size() < cap) {
    violations.push_back(InvariantViolation{kind, time_s, node, std::move(message)});
  }
}

void InvariantReport::merge(const InvariantReport& other) {
  checks += other.checks;
  violation_count += other.violation_count;
  for (const InvariantViolation& v : other.violations) {
    if (violations.size() >= 256) {
      break;
    }
    violations.push_back(v);
  }
}

std::string InvariantReport::to_string() const {
  std::ostringstream out;
  out << checks << " checks, " << violation_count << " violations";
  for (const InvariantViolation& v : violations) {
    out << "\n  [" << verify::to_string(v.kind) << "] t=" << v.time_s << "s node=" << v.node
        << ": " << v.message;
  }
  return out.str();
}

namespace {

/// A checker stops recording (but keeps counting) beyond this many
/// violations.
constexpr std::size_t kMaxViolations = 64;
/// Largest credible die-temperature change per sample period (°C). The die
/// stage has a seconds-scale time constant; an 8 °C jump in 250 ms means the
/// physics integrator or recorder is broken.
constexpr double kMaxStepDeltaC = 8.0;
/// Physical die-temperature envelope (°C).
constexpr double kEnvelopeMinC = 5.0;
constexpr double kEnvelopeMaxC = 120.0;

/// Effectiveness rank of a cell value: its index in the physical mode list
/// (which is ordered least → most effective), or nullopt if the value is not
/// a physical mode at all.
std::optional<std::size_t> rank_of(std::span<const double> available, double value) {
  for (std::size_t i = 0; i < available.size(); ++i) {
    if (available[i] == value) {
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace

void check_control_array_cells(std::span<const double> cells,
                               std::span<const double> available, std::size_t np,
                               core::PolicyParam pp, InvariantReport& report, double time_s,
                               std::size_t node, std::size_t cap) {
  if (cells.empty() || available.empty()) {
    ++report.checks;
    report.add(InvariantKind::kArrayFill, time_s, node, "empty array or mode list", cap);
    return;
  }

  // Eq. (1) recomputed from scratch must agree with the fill's n_p.
  ++report.checks;
  const std::size_t expected_np = core::ThermalControlArray::eq1_np(pp, cells.size());
  if (np != expected_np) {
    std::ostringstream msg;
    msg << "n_p=" << np << " but Eq. (1) gives " << expected_np << " for Pp=" << pp.value
        << ", N=" << cells.size();
    report.add(InvariantKind::kArrayFill, time_s, node, msg.str(), cap);
  }

  // Boundary pins: g1 least effective, gN most effective.
  ++report.checks;
  if (cells.front() != available.front()) {
    std::ostringstream msg;
    msg << "g1=" << cells.front() << " is not the least effective mode " << available.front();
    report.add(InvariantKind::kArrayPins, time_s, node, msg.str(), cap);
  }
  ++report.checks;
  if (cells.back() != available.back()) {
    std::ostringstream msg;
    msg << "gN=" << cells.back() << " is not the most effective mode " << available.back();
    report.add(InvariantKind::kArrayPins, time_s, node, msg.str(), cap);
  }

  // Every cell holds a physical mode; ranks are non-descending; the plateau
  // [n_p, N] is all gN.
  std::size_t prev_rank = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ++report.checks;
    const std::optional<std::size_t> rank = rank_of(available, cells[i]);
    if (!rank.has_value()) {
      std::ostringstream msg;
      msg << "cell " << i + 1 << " holds " << cells[i] << ", not a physical mode";
      report.add(InvariantKind::kArrayFill, time_s, node, msg.str(), cap);
      have_prev = false;
      continue;
    }
    if (have_prev && *rank < prev_rank) {
      std::ostringstream msg;
      msg << "cell " << i + 1 << " (" << cells[i] << ") less effective than cell " << i << " ("
          << cells[i - 1] << ")";
      report.add(InvariantKind::kArrayOrder, time_s, node, msg.str(), cap);
    }
    // Plateau: cells [n_p, N] all hold gN — except cell 1 when n_p == 1,
    // where the §3.2.2 g1 boundary pin takes precedence over the plateau
    // (the fill forces cells_.front() back to the least effective mode).
    if (i + 1 >= np && cells[i] != available.back() && !(i == 0 && np == 1)) {
      std::ostringstream msg;
      msg << "cell " << i + 1 << " in plateau [n_p=" << np << ", N] holds " << cells[i]
          << ", not gN=" << available.back();
      report.add(InvariantKind::kArrayFill, time_s, node, msg.str(), cap);
    }
    prev_rank = *rank;
    have_prev = true;
  }
}

void check_control_array(const core::ThermalControlArray& array, InvariantReport& report,
                         double time_s, std::size_t node, std::size_t cap) {
  std::vector<double> cells(array.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = array.mode(i);
  }
  check_control_array_cells(cells, array.available_modes(), array.np(), array.policy(), report,
                            time_s, node, cap);
}

void check_selector_decision(const core::ModeSelector& selector,
                             const core::ModeDecision& decision, std::size_t current,
                             const core::WindowRound& round, std::size_t array_size,
                             InvariantReport& report, double time_s, std::size_t node,
                             std::size_t cap) {
  ++report.checks;
  if (decision.target >= array_size) {
    std::ostringstream msg;
    msg << "target " << decision.target << " outside [0, " << array_size - 1 << "]";
    report.add(InvariantKind::kSelectorRange, time_s, node, msg.str(), cap);
  }
  ++report.checks;
  if (!decision.changed && decision.target != current) {
    std::ostringstream msg;
    msg << "unchanged decision moved index " << current << " -> " << decision.target;
    report.add(InvariantKind::kSelectorAttribution, time_s, node, msg.str(), cap);
  }
  if (decision.used_level2) {
    // Level-2 attribution is only legal when level one produced no change
    // and the FIFO actually held enough rounds for Δt_L2 to mean anything.
    ++report.checks;
    if (selector.apply(current, round.level1_delta) != current) {
      report.add(InvariantKind::kSelectorAttribution, time_s, node,
                 "level-2 attribution but level-1 delta already moved the index", cap);
    }
    ++report.checks;
    if (!round.level2_valid) {
      report.add(InvariantKind::kSelectorAttribution, time_s, node,
                 "level-2 attribution from an invalid level-2 FIFO", cap);
    }
  }
}

RunInvariantChecker::RunInvariantChecker(const core::RigView& rig,
                                         std::shared_ptr<InvariantLog> log)
    : log_(std::move(log)), cluster_(rig.cluster), bank_(rig.bank) {
  last_die_.resize(cluster_ != nullptr ? cluster_->size() : 0);
  seen_.resize(bank_ != nullptr ? bank_->nodes() : 0);
}

RunInvariantChecker::~RunInvariantChecker() {
  if (log_ != nullptr) {
    log_->append(report_);
  }
}

void RunInvariantChecker::tick(SimTime now) {
  const double t = now.seconds();
  const std::size_t cap = kMaxViolations;

  // RC-network sanity, per node.
  for (std::size_t i = 0; cluster_ != nullptr && i < cluster_->size(); ++i) {
    const double die = cluster_->node(i).die_temperature().value();
    ++report_.checks;
    if (!std::isfinite(die)) {
      report_.add(InvariantKind::kRcFinite, t, i, "die temperature not finite", cap);
      last_die_[i].reset();
      continue;
    }
    ++report_.checks;
    if (die < kEnvelopeMinC || die > kEnvelopeMaxC) {
      std::ostringstream msg;
      msg << "die " << die << " degC outside [" << kEnvelopeMinC << ", " << kEnvelopeMaxC << "]";
      report_.add(InvariantKind::kRcEnvelope, t, i, msg.str(), cap);
    }
    ++report_.checks;
    if (last_die_[i].has_value() && std::abs(die - *last_die_[i]) > kMaxStepDeltaC) {
      std::ostringstream msg;
      msg << "die jumped " << die - *last_die_[i] << " degC in one sample period";
      report_.add(InvariantKind::kRcStepDelta, t, i, msg.str(), cap);
    }
    last_die_[i] = die;
  }

  // Each node's techniques, whichever controller holds them: index in
  // range, and the full array re-checked whenever the policy changed
  // (construction counts as a change).
  const auto check_technique = [&](const char* name, const auto& technique, int& last_pp,
                                   std::size_t i) {
    ++report_.checks;
    if (technique.current_index() >= technique.array().size()) {
      std::ostringstream msg;
      msg << name << " index " << technique.current_index() << " >= N="
          << technique.array().size();
      report_.add(InvariantKind::kSelectorRange, t, i, msg.str(), cap);
    }
    const int pp = technique.array().policy().value;
    if (pp != last_pp) {
      check_control_array(technique.array(), report_, t, i, cap);
      last_pp = pp;
    }
  };
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (const core::FanTechnique* fan = bank_->fan_technique(i); fan != nullptr) {
      check_technique("fan", *fan, seen_[i].fan_pp, i);
    }
    // tDVFS also owes the coordination invariant on every new down-trigger.
    const core::TdvfsTechnique* dvfs = bank_->tdvfs_technique(i);
    if (dvfs == nullptr) {
      continue;
    }
    check_technique("tdvfs", *dvfs, seen_[i].tdvfs_pp, i);
    const auto events = dvfs->events();
    for (const core::TdvfsEvent& e : events.after(seen_[i].tdvfs_events)) {
      if (e.to_ghz >= e.from_ghz) {
        continue;  // restore (or lateral): no coordination obligation
      }
      // Fan-preferred ordering (§4.3): DVFS costs performance, so a
      // down-trigger is only legitimate once the shared sensor's round
      // average actually crossed the threshold — while the average is below
      // it, cooling demand belongs to the fan (which still has headroom by
      // definition of "not hot enough to trigger").
      ++report_.checks;
      const std::optional<Celsius> avg = dvfs->last_round_average();
      const double threshold = dvfs->config().threshold.value();
      if (!avg.has_value() || avg->value() <= threshold) {
        std::ostringstream msg;
        msg << "down-trigger " << e.from_ghz << " -> " << e.to_ghz << " GHz with round average ";
        if (avg.has_value()) {
          msg << avg->value() << " degC <= threshold " << threshold << " degC";
        } else {
          msg << "unset";
        }
        report_.add(InvariantKind::kCoordination, t, i, msg.str(), cap);
      }
    }
    seen_[i].tdvfs_events = events.cursor();
  }
}

std::shared_ptr<InvariantLog> arm_invariants(core::ExperimentConfig& config) {
  auto log = std::make_shared<InvariantLog>();
  // Chain: an already-installed observer keeps running first.
  auto prev = config.on_rig_built;
  config.on_rig_built = [log, prev = std::move(prev)](const core::RigView& rig) {
    if (prev) {
      prev(rig);
    }
    // Fresh checker per run: the same armed config may run many times
    // (serial + parallel oracle passes) and checkers must not share mutable
    // state across runs. The engine owns the periodic task (and with it the
    // checker); teardown flushes into the shared log.
    auto checker = std::make_shared<RunInvariantChecker>(rig, log);
    rig.engine->add_periodic(rig.config->node_params.sample_period,
                             [checker](SimTime now) { checker->tick(now); });
  };
  return log;
}

}  // namespace thermctl::verify
