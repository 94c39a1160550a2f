#include "core/unified_controller.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "controller_rig.hpp"
#include "core/experiment.hpp"
#include "obs/trace.hpp"
#include "sysfs/powerclamp.hpp"

namespace thermctl::core {
namespace {

using testing::ControllerRig;

UnifiedConfig paper_unified(int pp) {
  UnifiedConfig cfg;
  cfg.pp = PolicyParam{pp};
  cfg.tdvfs.threshold = Celsius{51.0};
  return cfg;
}

TEST(Unified, OnePpFlowsToBothTechniques) {
  ControllerRig rig;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, paper_unified(25)};
  EXPECT_EQ(uc.fan().array().policy().value, 25);
  EXPECT_EQ(uc.dvfs().array().policy().value, 25);
}

TEST(Unified, FanActsBelowThresholdDvfsDoesNot) {
  ControllerRig rig;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, paper_unified(50)};
  SimTime now;
  double temp = 40.0;
  for (int i = 0; i < 40; ++i) {  // rise to 48 °C — warm but under threshold
    now.advance_us(250000);
    temp += 0.2;
    rig.tick(uc, temp, now);
  }
  EXPECT_GT(uc.fan().current_index(), 0u);          // out-of-band responded
  EXPECT_DOUBLE_EQ(rig.cpu.frequency().value(), 2.4);  // in-band untouched
  EXPECT_DOUBLE_EQ(uc.first_dvfs_trigger_s(), -1.0);
}

TEST(Unified, DvfsEngagesWhenFanInsufficient) {
  ControllerRig rig;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, paper_unified(50)};
  rig.run_flat(uc, 54.0, 24);  // hot despite the fan (scripted temperature)
  EXPECT_LT(rig.cpu.frequency().value(), 2.4);
  EXPECT_GT(uc.first_dvfs_trigger_s(), 0.0);
}

TEST(Unified, SetPolicyUpdatesBoth) {
  ControllerRig rig;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, paper_unified(50)};
  uc.set_policy(PolicyParam{80});
  EXPECT_EQ(uc.fan().array().policy().value, 80);
  EXPECT_EQ(uc.dvfs().array().policy().value, 80);
}

TEST(Unified, SharedSensorStreamKeepsWindowsInPhase) {
  // Both sub-controllers complete rounds on the same samples; the fan must
  // retarget before or at the same tick the DVFS trigger fires (fan-first
  // ordering within on_sample).
  ControllerRig rig;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, paper_unified(50)};
  SimTime now;
  double temp = 46.0;
  for (int i = 0; i < 60 && uc.first_dvfs_trigger_s() < 0.0; ++i) {
    now.advance_us(250000);
    temp += 0.15;
    rig.tick(uc, temp, now);
  }
  ASSERT_GT(uc.first_dvfs_trigger_s(), 0.0);
  ASSERT_FALSE(uc.fan().events().empty());
  EXPECT_LE(uc.fan().events().front().time_s, uc.first_dvfs_trigger_s());
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_round(const WindowRound& a, const WindowRound& b) {
  return a.level2_valid == b.level2_valid &&
         same_bits(a.level1_delta.value(), b.level1_delta.value()) &&
         same_bits(a.level2_delta.value(), b.level2_delta.value()) &&
         same_bits(a.level1_average.value(), b.level1_average.value());
}

/// Two windows hold the same history when they share geometry and fills
/// and, fed one probe, close the same rounds bit for bit. The probe runs
/// long enough to read every level-two entry back out as a Δt_L2.
bool same_history(TwoLevelWindow a, TwoLevelWindow b) {
  const WindowConfig ga = a.config();
  const WindowConfig gb = b.config();
  if (ga.level1_size != gb.level1_size || ga.level2_size != gb.level2_size ||
      a.level1_fill() != b.level1_fill() || a.level2_fill() != b.level2_fill()) {
    return false;
  }
  for (std::size_t k = 0; k < ga.level1_size * (ga.level2_size + 1); ++k) {
    const Celsius probe{37.0 + 0.375 * static_cast<double>(k * k % 11)};
    const auto ra = a.add_sample(probe);
    const auto rb = b.add_sample(probe);
    if (ra.has_value() != rb.has_value() || (ra.has_value() && !same_round(*ra, *rb))) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over raw bytes.
void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
}

/// The fault-aware unified config the campaign tests run: short health
/// thresholds so every degradation path is reached within the horizon.
UnifiedConfig fault_aware_unified() {
  UnifiedConfig cfg = paper_unified(50);
  cfg.tdvfs.threshold = Celsius{50.0};
  cfg.fault_aware = true;
  cfg.health.stuck_samples = 6;
  cfg.health.reject_samples = 3;
  cfg.health.recovery_samples = 4;
  return cfg;
}

/// A seeded 300 s campaign of stuck and bus faults on `buses`, plus short
/// garbage bursts on top: non-finite and out-of-range readings, and stale
/// gaps with no tick at all. Every 250 ms tick calls `tick(now, retune,
/// reading)`: `retune` holds a new Pp every 40 s, `reading` is the sample
/// to feed, or nullopt when it never arrives.
template <typename Tick>
void run_fault_campaign(std::initializer_list<hw::I2cBus*> buses, Tick&& tick) {
  constexpr double kHorizonS = 300.0;
  FaultCampaignConfig campaign;
  campaign.enabled = true;
  campaign.seed = 23;
  campaign.episodes_per_node = 8;
  campaign.start_after = Seconds{10.0};
  campaign.min_duration = Seconds{2.0};
  campaign.max_duration = Seconds{8.0};
  const std::vector<FaultEpisode> schedule = make_fault_schedule(campaign, 0, Seconds{kHorizonS});
  ASSERT_FALSE(schedule.empty());

  enum class Burst { kNone, kNonFinite, kOutOfRange, kStale };
  Rng rng{2306};
  Burst burst = Burst::kNone;
  int burst_left = 0;
  std::optional<double> held;  // the frozen value while a stuck episode runs
  SimTime now;
  for (int tick_index = 0; now.seconds() < kHorizonS; ++tick_index) {
    now.advance_us(250000);
    const double t = now.seconds();
    bool stuck = false;
    bool bus = false;
    for (const FaultEpisode& e : schedule) {
      if (t >= e.start.value() && t < e.end.value()) {
        (e.kind == FaultEpisode::Kind::kSensorStuck ? stuck : bus) = true;
      }
    }
    for (hw::I2cBus* b : buses) {
      if (bus != b->faulted()) {
        bus ? b->inject_bus_fault() : b->clear_bus_fault();
      }
    }
    std::optional<PolicyParam> retune;
    if (tick_index > 0 && tick_index % 160 == 0) {
      retune = PolicyParam{10 + static_cast<int>(rng.below(81))};
    }
    if (burst_left == 0 && t > 5.0 && rng.uniform() < 0.02) {
      burst = static_cast<Burst>(1 + rng.below(3));
      burst_left = 1 + static_cast<int>(rng.below(6));
    }

    const double healthy = 47.0 + 6.0 * std::sin(t / 15.0) + 0.25 * (tick_index % 2);
    std::optional<double> reading = healthy;
    if (stuck) {
      if (!held.has_value()) {
        held = healthy;
      }
      reading = *held;
    } else {
      held.reset();
    }
    if (burst_left > 0) {
      --burst_left;
      if (burst == Burst::kStale) {
        reading.reset();  // the sample never arrives
      } else {
        reading = burst == Burst::kNonFinite ? std::numeric_limits<double>::quiet_NaN() : 150.0;
      }
    }
    tick(now, retune, reading);
  }
}

TEST(Unified, FaultAwareTechniquesKeepOneWindowHistory) {
  // A fault-aware unified controller under the seeded fault campaign,
  // re-tuned every 40 s. Both techniques read the same classified stream,
  // reset together on failure entry, skip pushes together while failed and
  // bridge with the same last good reading, so one window serves both:
  // every fan window round is followed by a tDVFS round with the same Δt
  // values, the window holds what a standalone fan controller's would, and
  // the digest of all window rounds is pinned to the values two separate
  // windows produced.
  ControllerRig rig;
  ControllerRig solo_rig;
  const UnifiedConfig cfg = fault_aware_unified();
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, cfg};
  FanControlConfig solo_cfg = cfg.fan;
  solo_cfg.fault_aware = true;
  solo_cfg.health = cfg.health;
  DynamicFanController solo{*solo_rig.hwmon, solo_cfg};
  obs::TraceRing ring{0};
  uc.set_trace(&ring);

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t cursor = 0;
  std::vector<obs::TraceEvent> fresh;
  std::size_t paired_rounds = 0;
  run_fault_campaign({&rig.bus, &solo_rig.bus}, [&](SimTime now,
                                                    std::optional<PolicyParam> retune,
                                                    std::optional<double> reading) {
    if (retune.has_value()) {
      uc.set_policy(*retune);
      solo.set_policy(*retune);
    }
    if (!reading.has_value()) {
      return;
    }
    const double t = now.seconds();
    uc.on_sample_with(now, Celsius{*reading});
    solo.on_sample_with(now, Celsius{*reading});
    ASSERT_TRUE(same_history(uc.window(), solo.window())) << "t=" << t;

    fresh.clear();
    std::uint64_t lost = 0;
    cursor = ring.read_new(cursor, 0, fresh, lost);
    ASSERT_EQ(lost, 0u);
    std::vector<const obs::TraceEvent*> rounds;
    for (const obs::TraceEvent& ev : fresh) {
      if (ev.type == obs::TraceEventType::kWindowRound) {
        rounds.push_back(&ev);
        fnv(digest, &ev.t_s, sizeof ev.t_s);
        fnv(digest, &ev.subsystem, sizeof ev.subsystem);
        fnv(digest, &ev.flags, sizeof ev.flags);
        fnv(digest, &ev.a, sizeof ev.a);
        fnv(digest, &ev.b, sizeof ev.b);
        fnv(digest, &ev.c, sizeof ev.c);
      }
    }
    // A round is either skipped by both techniques or read by both, fan
    // first, with the same Δt values.
    ASSERT_TRUE(rounds.empty() || rounds.size() == 2) << "t=" << t;
    if (rounds.size() == 2) {
      EXPECT_EQ(rounds[0]->subsystem, obs::TraceSubsystem::kFan);
      EXPECT_EQ(rounds[1]->subsystem, obs::TraceSubsystem::kTdvfs);
      EXPECT_EQ(rounds[0]->flags, rounds[1]->flags);
      EXPECT_TRUE(same_bits(rounds[0]->a, rounds[1]->a) && same_bits(rounds[0]->b, rounds[1]->b) &&
                  same_bits(rounds[0]->c, rounds[1]->c))
          << "t=" << t;
      ++paired_rounds;
    }
  });

  // The campaign reached every degradation path.
  EXPECT_GT(uc.fan().failsafe_entries(), 1u);
  EXPECT_GT(uc.fan().failsafe_exits(), 1u);
  EXPECT_GT(uc.dvfs().hold_entries(), 1u);
  EXPECT_GT(uc.health()->stats().rejected, 0u);
  EXPECT_GT(uc.fan().retarget_count(), 0u);
  EXPECT_FALSE(uc.dvfs().events().empty());
  EXPECT_GT(paired_rounds, 100u);
  EXPECT_EQ(digest, 0xd6ba9b9618a8919fULL) << std::hex << digest;
}

TEST(Unified, FaultAwareTraceIsPinned) {
  // Every trace event the fault campaign makes a unified controller emit,
  // with every field and in order. The digest was taken when each technique
  // kept its own health monitor and each reading was classified twice,
  // with the tDVFS-tagged copies left out; one gate now classifies each
  // reading once, so there are no copies left to leave out and every other
  // event keeps its place and values.
  ControllerRig rig;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, fault_aware_unified()};
  obs::TraceRing ring{0};
  uc.set_trace(&ring);

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t cursor = 0;
  std::size_t events = 0;
  std::size_t classified = 0;
  std::size_t tdvfs_copies = 0;
  std::vector<obs::TraceEvent> fresh;
  run_fault_campaign({&rig.bus}, [&](SimTime now, std::optional<PolicyParam> retune,
                                     std::optional<double> reading) {
    if (retune.has_value()) {
      uc.set_policy(*retune);
    }
    if (reading.has_value()) {
      uc.on_sample_with(now, Celsius{*reading});
    }
    fresh.clear();
    std::uint64_t lost = 0;
    cursor = ring.read_new(cursor, 0, fresh, lost);
    ASSERT_EQ(lost, 0u);
    for (const obs::TraceEvent& ev : fresh) {
      if (ev.type == obs::TraceEventType::kSensorClassified) {
        if (ev.subsystem == obs::TraceSubsystem::kTdvfs) {
          ++tdvfs_copies;
          continue;
        }
        ++classified;
      }
      ++events;
      fnv(digest, &ev.t_s, sizeof ev.t_s);
      fnv(digest, &ev.node, sizeof ev.node);
      fnv(digest, &ev.type, sizeof ev.type);
      fnv(digest, &ev.subsystem, sizeof ev.subsystem);
      fnv(digest, &ev.flags, sizeof ev.flags);
      fnv(digest, &ev.i0, sizeof ev.i0);
      fnv(digest, &ev.i1, sizeof ev.i1);
      fnv(digest, &ev.a, sizeof ev.a);
      fnv(digest, &ev.b, sizeof ev.b);
      fnv(digest, &ev.c, sizeof ev.c);
    }
  });

  EXPECT_GT(classified, 0u);
  EXPECT_EQ(tdvfs_copies, 0u);
  EXPECT_EQ(events, 1023u);
  EXPECT_EQ(digest, 0xf53a5fe6a128df86ULL) << std::hex << digest;
}

struct ClampRig : ControllerRig {
  sysfs::PowerClampDevice clamp{fs, "/sys/class/thermal", 0, cpu};
};

TEST(Unified, IdleBackstopActsOnTheSharedWindow) {
  // The backstop reads the controller's one window, not the geometry its
  // sub-config names: at two samples a round its three consistent hot
  // rounds close after six ticks, where idle.window's default four-sample
  // rounds would need twelve.
  ClampRig rig;
  UnifiedConfig cfg;
  cfg.window.level1_size = 2;
  cfg.tdvfs.threshold = Celsius{80.0};  // keep tDVFS out of it
  cfg.enable_idle_injection = true;
  ASSERT_EQ(cfg.idle.window.level1_size, 4u);
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, rig.clamp, cfg};

  const SimTime now = rig.run_flat(uc, 58.0, 5);
  EXPECT_FALSE(rig.cpu.idle_injector().active());
  rig.run_flat(uc, 58.0, 1, now);
  EXPECT_TRUE(rig.cpu.idle_injector().active());
  ASSERT_EQ(uc.idle_injection().events().size(), 1u);
  EXPECT_DOUBLE_EQ(uc.idle_injection().events().front().time_s, 1.5);
}

TEST(Unified, IdleBackstopHoldsItsClampWhileTheSensorHasFailed) {
  // Behind a fault-aware gate the backstop holds its clamp on a failed
  // sensor, as tDVFS holds its frequency: a reading frozen hot would
  // otherwise deepen the clamp every three rounds.
  ClampRig rig;
  UnifiedConfig cfg = fault_aware_unified();
  cfg.enable_idle_injection = true;
  UnifiedController uc{*rig.hwmon, *rig.cpufreq, rig.clamp, cfg};

  SimTime now;
  for (int i = 0; i < 24; ++i) {  // severe heat on a live (jittering) sensor
    now.advance_us(250000);
    rig.tick(uc, 58.0 + 0.25 * (i % 2), now);
  }
  ASSERT_TRUE(rig.cpu.idle_injector().active());
  const long clamped = rig.clamp.cur_state();
  const std::size_t moves = uc.idle_injection().events().size();
  ASSERT_LT(uc.idle_injection().current_index(), uc.idle_injection().array().size() - 1);

  rig.sensor.inject_stuck_fault();
  for (int i = 0; i < 48; ++i) {
    now.advance_us(250000);
    rig.tick(uc, 58.0, now);
  }
  ASSERT_NE(uc.health(), nullptr);
  EXPECT_TRUE(uc.health()->failed());
  EXPECT_TRUE(uc.dvfs().holding());
  EXPECT_TRUE(uc.idle_injection().holding());
  EXPECT_EQ(uc.idle_injection().hold_entries(), 1u);
  EXPECT_EQ(rig.clamp.cur_state(), clamped);
  EXPECT_EQ(uc.idle_injection().events().size(), moves);
}

}  // namespace
}  // namespace thermctl::core
