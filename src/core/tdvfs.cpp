#include "core/tdvfs.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace thermctl::core {

namespace {

/// The frequencies `cpufreq` lists, ordered fastest (least effective at
/// cooling) to slowest (most effective).
std::vector<double> frequency_modes(const sysfs::CpufreqPolicy& cpufreq) {
  const double max_ghz = sysfs::CpufreqPolicy::from_khz(cpufreq.max_khz()).value();
  const double min_ghz = sysfs::CpufreqPolicy::from_khz(cpufreq.min_khz()).value();
  THERMCTL_ASSERT(max_ghz > 0.0 && min_ghz > 0.0, "cpufreq bounds unavailable");
  std::vector<double> modes = cpufreq.available_ghz();
  std::sort(modes.begin(), modes.end(), std::greater<>());
  return modes;
}

}  // namespace

TdvfsFamily::TdvfsFamily(const TdvfsConfig& cfg, const sysfs::CpufreqPolicy& cpufreq)
    : config(cfg),
      selector(cfg.selector, cfg.array_size),
      array(frequency_modes(cpufreq), cfg.array_size, cfg.pp),
      pstate_table(cpufreq.pstate_table()) {
  THERMCTL_ASSERT(cfg.consistency_rounds >= 1, "consistency must be >= 1 round");
  THERMCTL_ASSERT(cfg.restore_rounds >= 1, "restore consistency must be >= 1 round");
}

bool TdvfsFamily::admits(TdvfsConfig other, const sysfs::CpufreqPolicy& cpufreq) const {
  other.pp = config.pp;
  if (other != config) {
    return false;
  }
  if (cpufreq.pstate_table() == pstate_table) {
    return true;
  }
  const std::vector<double> modes = frequency_modes(cpufreq);
  return std::equal(modes.begin(), modes.end(), array.available_modes().begin(),
                    array.available_modes().end());
}

TdvfsTechnique::TdvfsTechnique(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                               const TdvfsConfig& config)
    : TdvfsTechnique(hwmon, cpufreq, std::make_shared<const TdvfsFamily>(config, cpufreq),
                     config.pp) {}

TdvfsTechnique::TdvfsTechnique(sysfs::HwmonDevice& hwmon, sysfs::CpufreqPolicy& cpufreq,
                               std::shared_ptr<const TdvfsFamily> family, PolicyParam pp)
    : family_(std::move(family)), array_(family_->array), hwmon_(hwmon), cpufreq_(cpufreq) {
  if (pp != array_.policy()) {
    array_.set_policy(pp);
  }
}

GigaHertz TdvfsTechnique::current_target() const { return GigaHertz{array_.mode(index_)}; }

void TdvfsTechnique::set_policy(PolicyParam pp, TwoLevelWindow& window) {
  array_.set_policy(pp);
  window.reset();
}

void TdvfsTechnique::retarget(SimTime now, std::size_t target, int consistency, bool used_level2,
                              bool is_restore) {
  const double from = array_.mode(index_);
  const double to = array_.mode(target);
  index_ = target;
  if (to == from) {
    return;
  }
  cpufreq_.set_khz(sysfs::CpufreqPolicy::to_khz(GigaHertz{to}));
  THERMCTL_TRACE_EMIT(trace_,
                      (obs::TraceEvent{.type = is_restore ? obs::TraceEventType::kTdvfsRestore
                                                          : obs::TraceEventType::kTdvfsTrigger,
                                       .subsystem = obs::TraceSubsystem::kTdvfs,
                                       .flags = used_level2 ? obs::kTraceFlagUsedLevel2
                                                            : obs::kTraceFlagNone,
                                       .i0 = consistency,
                                       .i1 = static_cast<std::int64_t>(target),
                                       .a = from,
                                       .b = to}));
  events_.push_back(TdvfsEvent{now.seconds(), from, to});
  THERMCTL_LOG_INFO("tdvfs", "t=%.2fs frequency %.1f GHz -> %.1f GHz", now.seconds(), from, to);
}

void TdvfsTechnique::hold(SimTime now, bool failed, TwoLevelWindow& window) {
  if (failed) {
    if (!holding_) {
      holding_ = true;
      ++hold_entries_;
      // Forget the pre-failure trend; whatever consistency was building
      // was built on readings we now distrust.
      rounds_above_ = 0;
      rounds_below_ = 0;
      window.reset();
      THERMCTL_TRACE_EMIT(trace_,
                          (obs::TraceEvent{.type = obs::TraceEventType::kDvfsHoldEnter,
                                           .subsystem = obs::TraceSubsystem::kTdvfs,
                                           .a = array_.mode(index_)}));
      THERMCTL_LOG_INFO("tdvfs", "t=%.2fs sensor failed; holding %.1f GHz", now.seconds(),
                        array_.mode(index_));
    }
    ++held_ticks_;
    return;
  }
  holding_ = false;
  THERMCTL_TRACE_EMIT(trace_, (obs::TraceEvent{.type = obs::TraceEventType::kDvfsHoldExit,
                                               .subsystem = obs::TraceSubsystem::kTdvfs}));
  THERMCTL_LOG_INFO("tdvfs", "t=%.2fs sensor recovered; resuming control", now.seconds());
}

void TdvfsTechnique::act(SimTime now, const WindowRound& round) {
  THERMCTL_TRACE_EMIT(
      trace_,
      (obs::TraceEvent{.type = obs::TraceEventType::kWindowRound,
                       .subsystem = obs::TraceSubsystem::kTdvfs,
                       .flags = round.level2_valid ? obs::kTraceFlagLevel2Valid
                                                  : obs::kTraceFlagNone,
                       .a = round.level1_average.value(),
                       .b = round.level1_delta.value(),
                       .c = round.level2_delta.value()}));

  const double avg = round.level1_average.value();
  last_round_average_ = round.level1_average;
  if (avg > family_->config.threshold.value()) {
    ++rounds_above_;
    rounds_below_ = 0;
  } else if (avg < family_->config.threshold.value() - family_->config.hysteresis.value()) {
    ++rounds_below_;
    rounds_above_ = 0;
  } else {
    // Inside the hysteresis band: neither trend is "consistent".
    rounds_above_ = 0;
    rounds_below_ = 0;
  }

  if (rounds_above_ >= family_->config.consistency_rounds) {
    // Consistently hot: each trigger must actually change the operating
    // frequency, so the floor of the move is the next cell holding a
    // *distinct* mode (the Pp fill may duplicate modes across cells); the
    // window's prediction can push further (i + c·Δt).
    std::size_t next_distinct = index_;
    while (next_distinct + 1 < array_.size() &&
           array_.mode(next_distinct) == array_.mode(index_)) {
      ++next_distinct;
    }
    const ModeDecision d = family_->selector.decide(index_, round);
    THERMCTL_TRACE_EMIT(trace_,
                        (obs::TraceEvent{.type = obs::TraceEventType::kModeDecision,
                                         .subsystem = obs::TraceSubsystem::kTdvfs,
                                         .flags = (d.changed ? obs::kTraceFlagChanged : 0u) |
                                                  (d.used_level2 ? obs::kTraceFlagUsedLevel2 : 0u) |
                                                  (d.clamped ? obs::kTraceFlagClamped : 0u),
                                         .i0 = static_cast<std::int64_t>(index_),
                                         .i1 = static_cast<std::int64_t>(d.target),
                                         .a = d.raw_target,
                                         .b = d.delta_used.value(),
                                         .c = array_.mode(d.target)}));
    std::size_t target = d.changed ? std::max(d.target, next_distinct) : next_distinct;
    target = std::min(target, array_.size() - 1);
    retarget(now, target, rounds_above_, d.changed && d.used_level2, /*is_restore=*/false);
    rounds_above_ = 0;
  } else if (rounds_below_ >= family_->config.restore_rounds && index_ != 0) {
    // Consistently cool again: restore the original frequency outright.
    retarget(now, 0, rounds_below_, /*used_level2=*/false, /*is_restore=*/true);
    rounds_below_ = 0;
  }
}

}  // namespace thermctl::core
