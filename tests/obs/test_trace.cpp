#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/chrome_export.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_summary.hpp"

namespace thermctl::obs {
namespace {

TraceEvent fan_retarget(double t, double from, double to, std::uint32_t extra_flags = 0) {
  return TraceEvent{.t_s = t,
                    .type = TraceEventType::kFanRetarget,
                    .subsystem = TraceSubsystem::kFan,
                    .flags = kTraceFlagWriteOk | extra_flags,
                    .i0 = 3,
                    .a = from,
                    .b = to};
}

TraceEvent dvfs_trigger(double t, double from, double to, std::int64_t rounds) {
  return TraceEvent{.t_s = t,
                    .type = TraceEventType::kTdvfsTrigger,
                    .subsystem = TraceSubsystem::kTdvfs,
                    .i0 = rounds,
                    .i1 = 2,
                    .a = from,
                    .b = to};
}

TEST(TraceRing, StampsNodeAndClockTime) {
  TraceRing ring{7, 8};
  ring.set_time_s(2.5);
  ring.emit(TraceEvent{.type = TraceEventType::kI2cRetry, .subsystem = TraceSubsystem::kI2c});
  ring.emit(TraceEvent{.t_s = 9.0, .type = TraceEventType::kWindowRound});
  const std::vector<TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 7);
  EXPECT_DOUBLE_EQ(events[0].t_s, 2.5);  // ring clock fills a zero timestamp
  EXPECT_DOUBLE_EQ(events[1].t_s, 9.0);  // explicit timestamps pass through
}

TEST(TraceRing, WrapsKeepingNewestAndCountsDrops) {
  TraceRing ring{0, 4};
  for (int i = 0; i < 10; ++i) {
    ring.emit(TraceEvent{.t_s = static_cast<double>(i), .type = TraceEventType::kWindowRound});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first order of the surviving (newest) events: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t_s, 6.0 + i);
  }
}

TEST(TraceRing, ClearResetsEverything) {
  TraceRing ring{0, 4};
  ring.emit(TraceEvent{.t_s = 1.0});
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(TraceRing, ReadNewAdvancesCursorWithoutLoss) {
  TraceRing ring{0, 8};
  for (int i = 0; i < 3; ++i) {
    ring.emit(TraceEvent{.t_s = 1.0 + i, .type = TraceEventType::kWindowRound});
  }
  std::vector<TraceEvent> out;
  std::uint64_t lost = 0;
  std::uint64_t cursor = ring.read_new(0, 0, out, lost);
  EXPECT_EQ(cursor, 3u);
  EXPECT_EQ(lost, 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].t_s, 1.0);

  // Nothing new: the cursor holds and nothing is appended.
  cursor = ring.read_new(cursor, 0, out, lost);
  EXPECT_EQ(cursor, 3u);
  EXPECT_EQ(out.size(), 3u);

  ring.emit(TraceEvent{.t_s = 9.0, .type = TraceEventType::kWindowRound});
  cursor = ring.read_new(cursor, 0, out, lost);
  EXPECT_EQ(cursor, 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out.back().t_s, 9.0);
  EXPECT_EQ(lost, 0u);
}

TEST(TraceRing, ReadNewCountsLapLossAndHonorsBudget) {
  TraceRing ring{0, 4};
  for (int i = 0; i < 10; ++i) {
    ring.emit(TraceEvent{.t_s = static_cast<double>(i), .type = TraceEventType::kWindowRound});
  }
  // Cursor still at 0 but emissions 0..5 are gone: only 6..9 survive.
  std::vector<TraceEvent> out;
  std::uint64_t lost = 0;
  std::uint64_t cursor = ring.read_new(0, 2, out, lost);
  EXPECT_EQ(lost, 6u);
  ASSERT_EQ(out.size(), 2u);  // budget of 2 defers the rest
  EXPECT_DOUBLE_EQ(out[0].t_s, 6.0);
  EXPECT_DOUBLE_EQ(out[1].t_s, 7.0);
  EXPECT_EQ(cursor, 8u);

  cursor = ring.read_new(cursor, 2, out, lost);
  EXPECT_EQ(cursor, 10u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out.back().t_s, 9.0);
  EXPECT_EQ(lost, 6u);  // no further loss once the reader catches up
}

TEST(TraceRing, ReadNewAppendsAfterExistingEvents) {
  // A spill drain appends ring after ring into one batch: what a read adds
  // goes after what earlier rings put there, which stays intact and in order.
  TraceRing a{1, 8};
  TraceRing b{2, 8};
  for (int i = 0; i < 3; ++i) {
    a.emit(TraceEvent{.t_s = 1.0 + i, .type = TraceEventType::kWindowRound});
    b.emit(TraceEvent{.t_s = 10.0 + i, .type = TraceEventType::kWindowRound});
  }
  std::vector<TraceEvent> out;
  std::uint64_t lost = 0;
  EXPECT_EQ(a.read_new(0, 0, out, lost), 3u);
  EXPECT_EQ(b.read_new(0, 0, out, lost), 3u);
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(out[k].node, 1);
    EXPECT_DOUBLE_EQ(out[k].t_s, 1.0 + i);
    EXPECT_EQ(out[k + 3].node, 2);
    EXPECT_DOUBLE_EQ(out[k + 3].t_s, 10.0 + i);
  }
  EXPECT_EQ(lost, 0u);
}

TEST(RunTrace, DroppedByNodeIsPerNodeNotAggregate) {
  RunTrace trace{3, 2};
  trace.ring(0).emit(TraceEvent{.t_s = 1.0});
  for (int i = 0; i < 5; ++i) {
    trace.ring(2).emit(TraceEvent{.t_s = 1.0 + i});
  }
  const std::vector<std::uint64_t> dropped = trace.dropped_by_node();
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(dropped[0], 0u);
  EXPECT_EQ(dropped[1], 0u);
  EXPECT_EQ(dropped[2], 3u);
  EXPECT_EQ(trace.total_dropped(), 3u);
}

TEST(TraceEmitMacro, NullRingIsANoOp) {
  TraceRing* no_ring = nullptr;
  // Must compile and do nothing — this is the disabled-tracing hot path.
  THERMCTL_TRACE_EMIT(no_ring, (TraceEvent{.t_s = 1.0}));
  THERMCTL_TRACE_SET_TIME(no_ring, 1.0);
  TraceRing ring{0, 4};
  TraceRing* live = &ring;
  THERMCTL_TRACE_SET_TIME(live, 4.0);
  THERMCTL_TRACE_EMIT(live, (TraceEvent{.type = TraceEventType::kWindowRound}));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_DOUBLE_EQ(ring.events()[0].t_s, 4.0);
}

TEST(RunTrace, MergesByTimeThenNode) {
  RunTrace trace{2, 8};
  trace.ring(1).emit(TraceEvent{.t_s = 1.0, .type = TraceEventType::kWindowRound});
  trace.ring(0).emit(TraceEvent{.t_s = 1.0, .type = TraceEventType::kWindowRound});
  trace.ring(0).emit(TraceEvent{.t_s = 0.5, .type = TraceEventType::kWindowRound});
  const std::vector<TraceEvent> merged = trace.merged_events();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[0].t_s, 0.5);
  EXPECT_EQ(merged[1].node, 0);  // ties break by node index
  EXPECT_EQ(merged[2].node, 1);
  EXPECT_EQ(trace.total_emitted(), 3u);
  EXPECT_EQ(trace.total_dropped(), 0u);
}

TEST(TraceIo, RoundTripsBitExactly) {
  const std::string path = ::testing::TempDir() + "thermctl_roundtrip.thermtrace";
  RunTrace trace{2, 16};
  trace.ring(0).emit(fan_retarget(1.0, 10.0, 20.0));
  trace.ring(1).emit(dvfs_trigger(2.0, 2.4, 2.2, 3));
  trace.ring(0).emit(TraceEvent{.t_s = 3.0,
                                .type = TraceEventType::kWindowRound,
                                .subsystem = TraceSubsystem::kFan,
                                .flags = kTraceFlagLevel2Valid,
                                .a = 47.25,
                                .b = 0.5,
                                .c = 0.125});
  write_trace_file(path, trace);

  const TraceFile file = read_trace_file(path);
  EXPECT_EQ(file.node_count, 2u);
  const std::vector<TraceEvent> expected = trace.merged_events();
  ASSERT_EQ(file.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(file.events[i].t_s, expected[i].t_s);
    EXPECT_EQ(file.events[i].node, expected[i].node);
    EXPECT_EQ(file.events[i].type, expected[i].type);
    EXPECT_EQ(file.events[i].subsystem, expected[i].subsystem);
    EXPECT_EQ(file.events[i].flags, expected[i].flags);
    EXPECT_EQ(file.events[i].i0, expected[i].i0);
    EXPECT_EQ(file.events[i].i1, expected[i].i1);
    EXPECT_DOUBLE_EQ(file.events[i].a, expected[i].a);
    EXPECT_DOUBLE_EQ(file.events[i].b, expected[i].b);
    EXPECT_DOUBLE_EQ(file.events[i].c, expected[i].c);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagicAndMissingFile) {
  const std::string path = ::testing::TempDir() + "thermctl_not_a_trace.bin";
  {
    std::ofstream out{path, std::ios::binary};
    out << "definitely not a trace file, padded well past the header size";
  }
  EXPECT_THROW(read_trace_file(path), std::runtime_error);
  EXPECT_THROW(read_trace_file(::testing::TempDir() + "thermctl_nonexistent.thermtrace"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSummary, ModeChangeSequenceSkipsFailedWrites) {
  std::vector<TraceEvent> events;
  events.push_back(fan_retarget(1.0, 1.0, 10.0));
  TraceEvent failed = fan_retarget(2.0, 10.0, 20.0);
  failed.flags = 0;  // PWM write failed — hardware never changed mode
  events.push_back(failed);
  events.push_back(fan_retarget(3.0, 10.0, 25.0, kTraceFlagUsedLevel2));

  const std::vector<ModeChange> changes = mode_change_sequence(events);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_DOUBLE_EQ(changes[0].to, 10.0);
  EXPECT_FALSE(changes[0].used_level2);
  EXPECT_DOUBLE_EQ(changes[1].to, 25.0);
  EXPECT_TRUE(changes[1].used_level2);
}

TEST(TraceSummary, ModeChangeSequenceCarriesDvfsConsistency) {
  std::vector<TraceEvent> events;
  events.push_back(dvfs_trigger(5.0, 2.4, 2.2, 3));
  events.push_back(TraceEvent{.t_s = 40.0,
                              .type = TraceEventType::kTdvfsRestore,
                              .subsystem = TraceSubsystem::kTdvfs,
                              .i0 = 10,
                              .a = 2.2,
                              .b = 2.4});
  const std::vector<ModeChange> changes = mode_change_sequence(events);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].subsystem, TraceSubsystem::kTdvfs);
  EXPECT_EQ(changes[0].consistency_rounds, 3);
  EXPECT_FALSE(changes[0].is_restore);
  EXPECT_TRUE(changes[1].is_restore);
  EXPECT_EQ(changes[1].consistency_rounds, 10);
  EXPECT_DOUBLE_EQ(changes[1].to, 2.4);
}

TEST(TraceSummary, ResidencyChargesTimeBetweenChanges) {
  std::vector<TraceEvent> events;
  events.push_back(fan_retarget(10.0, 1.0, 20.0));
  events.push_back(fan_retarget(30.0, 20.0, 50.0));
  const auto residency = mode_residency(events, TraceSubsystem::kFan, 100.0);
  ASSERT_EQ(residency.count(0), 1u);
  const auto& node0 = residency.at(0);
  EXPECT_DOUBLE_EQ(node0.at(1.0), 10.0);   // t=0 → first change, at its from-mode
  EXPECT_DOUBLE_EQ(node0.at(20.0), 20.0);  // 10 s → 30 s
  EXPECT_DOUBLE_EQ(node0.at(50.0), 70.0);  // 30 s → end of run
}

TEST(TraceSummary, DecisionStatsCountPerNode) {
  std::vector<TraceEvent> events;
  TraceEvent round{.t_s = 1.0,
                   .type = TraceEventType::kWindowRound,
                   .subsystem = TraceSubsystem::kFan,
                   .flags = kTraceFlagLevel2Valid};
  events.push_back(round);
  TraceEvent decision{.t_s = 1.0,
                      .type = TraceEventType::kModeDecision,
                      .subsystem = TraceSubsystem::kFan,
                      .flags = kTraceFlagChanged | kTraceFlagUsedLevel2 | kTraceFlagClamped};
  events.push_back(decision);
  events.push_back(fan_retarget(1.0, 1.0, 10.0));
  TraceEvent other_node = dvfs_trigger(2.0, 2.4, 2.2, 3);
  other_node.node = 1;
  events.push_back(other_node);

  const auto stats = decision_stats(events);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at(0).window_rounds, 1u);
  EXPECT_EQ(stats.at(0).decisions, 1u);
  EXPECT_EQ(stats.at(0).decisions_changed, 1u);
  EXPECT_EQ(stats.at(0).level2_decisions, 1u);
  EXPECT_EQ(stats.at(0).clamped_decisions, 1u);
  EXPECT_EQ(stats.at(0).fan_retargets, 1u);
  EXPECT_EQ(stats.at(0).tdvfs_triggers, 0u);
  EXPECT_EQ(stats.at(1).tdvfs_triggers, 1u);
}

TEST(TraceSummary, RenderersProduceReadableViews) {
  std::vector<TraceEvent> events;
  events.push_back(fan_retarget(1.0, 1.0, 13.0, kTraceFlagUsedLevel2));
  events.push_back(dvfs_trigger(2.0, 2.4, 2.2, 3));
  const std::string timeline = render_timeline(events);
  EXPECT_NE(timeline.find("node0"), std::string::npos);
  EXPECT_NE(timeline.find("13"), std::string::npos);
  const std::string residency = render_residency(events, TraceSubsystem::kFan, 10.0);
  EXPECT_NE(residency.find("13"), std::string::npos);
  const std::string causality = render_causality(events);
  EXPECT_FALSE(causality.empty());
}

TEST(ChromeExport, EmitsWellFormedTraceEventArray) {
  const std::string path = ::testing::TempDir() + "thermctl_chrome.json";
  RunTrace trace{1, 16};
  trace.ring(0).emit(fan_retarget(1.0, 1.0, 10.0));
  trace.ring(0).emit(TraceEvent{.t_s = 2.0, .type = TraceEventType::kFailsafeEnter,
                                .subsystem = TraceSubsystem::kFan, .a = 100.0});
  trace.ring(0).emit(TraceEvent{.t_s = 5.0, .type = TraceEventType::kFailsafeExit,
                                .subsystem = TraceSubsystem::kFan, .i0 = 4});
  write_chrome_trace(path, trace);

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string json{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fan_retarget\""), std::string::npos);
  // The fail-safe episode renders as a 3-second span ("X" phase, µs units).
  EXPECT_NE(json.find("\"failsafe_cooling\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3000000"), std::string::npos);
  // Lane metadata names the node process.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace thermctl::obs
