// Unit tests for the live telemetry pipeline: the streaming spiller, fleet
// rollups, the alert watchdog, and OpenMetrics exposition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/openmetrics.hpp"
#include "obs/rollup.hpp"
#include "obs/spill.hpp"
#include "obs/trace_io.hpp"
#include "temp_path.hpp"

namespace thermctl::obs {
namespace {

TraceEvent event_at(double t, std::int64_t tag = 0) {
  return TraceEvent{.t_s = t,
                    .type = TraceEventType::kWindowRound,
                    .subsystem = TraceSubsystem::kFan,
                    .i0 = tag};
}

// ---- spiller ----

TEST(Spill, DrainsIncrementallyWithoutLoss) {
  RunTrace trace{2, 8};
  MemorySpillSink sink;
  TraceSpiller spiller{trace, sink, SpillConfig{}};

  trace.ring(0).emit(event_at(0.1));
  trace.ring(1).emit(event_at(0.2));
  spiller.drain(1.0);
  EXPECT_EQ(sink.events().size(), 2u);

  trace.ring(0).emit(event_at(1.1));
  spiller.drain(2.0);
  spiller.finish();

  EXPECT_TRUE(sink.finalized());
  EXPECT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(spiller.stats().events_spilled, 3u);
  EXPECT_EQ(spiller.stats().events_lost, 0u);
  EXPECT_EQ(spiller.stats().drains, 2u);
  // Merge order: (time, node).
  EXPECT_DOUBLE_EQ(sink.events()[0].t_s, 0.1);
  EXPECT_DOUBLE_EQ(sink.events()[1].t_s, 0.2);
  EXPECT_DOUBLE_EQ(sink.events()[2].t_s, 1.1);
}

TEST(Spill, SavesEventsTheRingWouldDrop) {
  // Ring capacity 4, 12 events emitted with a drain between batches: the
  // ring reports drops (it wrapped) but the spiller saw everything in time.
  RunTrace trace{1, 4};
  MemorySpillSink sink;
  TraceSpiller spiller{trace, sink, SpillConfig{}};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 4; ++i) {
      trace.ring(0).emit(event_at(batch + 0.1 * i, batch * 4 + i));
    }
    spiller.drain(batch + 1.0);
  }
  spiller.finish();
  EXPECT_GT(trace.total_dropped(), 0u);
  EXPECT_EQ(spiller.stats().events_lost, 0u);
  EXPECT_EQ(sink.events().size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(sink.events()[static_cast<std::size_t>(i)].i0, i);
  }
}

TEST(Spill, CountsLapLossPerNode) {
  // 10 events into a 4-slot ring with no drain in between: the oldest 6 are
  // gone before the spiller ever runs.
  RunTrace trace{2, 4};
  MemorySpillSink sink;
  TraceSpiller spiller{trace, sink, SpillConfig{}};
  for (int i = 0; i < 10; ++i) {
    trace.ring(1).emit(event_at(0.1 * i, i));
  }
  spiller.drain(1.0);
  spiller.finish();
  EXPECT_EQ(spiller.stats().events_lost, 6u);
  ASSERT_EQ(spiller.stats().lost_by_node.size(), 2u);
  EXPECT_EQ(spiller.stats().lost_by_node[0], 0u);
  EXPECT_EQ(spiller.stats().lost_by_node[1], 6u);
  // What survived is the newest 4, in order.
  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.events()[0].i0, 6);
  EXPECT_EQ(sink.events()[3].i0, 9);
}

TEST(Spill, BudgetDefersButNeverLoses) {
  RunTrace trace{4, 16};
  MemorySpillSink sink;
  SpillConfig cfg;
  cfg.max_events_per_drain = 3;
  TraceSpiller spiller{trace, sink, cfg};
  for (std::size_t n = 0; n < 4; ++n) {
    for (int i = 0; i < 4; ++i) {
      trace.ring(n).emit(event_at(0.1 * i, static_cast<std::int64_t>(n) * 4 + i));
    }
  }
  // 16 events pending, 3 per drain: needs 6 budgeted drains.
  for (int d = 0; d < 6; ++d) {
    spiller.drain(d + 1.0);
  }
  spiller.finish();
  EXPECT_EQ(spiller.stats().events_spilled, 16u);
  EXPECT_EQ(spiller.stats().events_lost, 0u);
  EXPECT_GT(spiller.stats().deferred_drains, 0u);
  EXPECT_EQ(sink.events().size(), 16u);
}

TEST(Spill, FinishIsIdempotentAndFinalizesHeader) {
  RunTrace trace{1, 8};
  MemorySpillSink sink;
  TraceSpiller spiller{trace, sink, SpillConfig{}};
  trace.ring(0).emit(event_at(0.5));
  spiller.finish();
  spiller.finish();
  EXPECT_TRUE(sink.finalized());
  EXPECT_EQ(sink.node_count(), 1u);
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(Spill, FileSinkWritesReadableThermtrace) {
  const std::string path = test_temp_path("spill.thermtrace");
  RunTrace trace{2, 8};
  {
    FileSpillSink sink{path};
    TraceSpiller spiller{trace, sink, SpillConfig{}};
    trace.ring(0).emit(event_at(0.25, 7));
    trace.ring(1).emit(event_at(0.5, 8));
    spiller.drain(1.0);
    trace.ring(0).emit(event_at(1.5, 9));
    spiller.finish();
  }
  const TraceFile file = read_trace_file(path);
  EXPECT_EQ(file.node_count, 2u);
  ASSERT_EQ(file.events.size(), 3u);
  EXPECT_EQ(file.events[0].i0, 7);
  EXPECT_EQ(file.events[2].i0, 9);
  std::remove(path.c_str());
}

// ---- rollup ----

TEST(Rollup, AggregatesPerRackAndFleet) {
  RollupConfig cfg;
  cfg.enabled = true;
  cfg.interval_s = 1.0;
  cfg.nodes_per_rack = 2;
  cfg.violation_temp_c = 60.0;
  FleetRollup rollup{4, cfg};
  EXPECT_EQ(rollup.rack_count(), 2u);
  EXPECT_EQ(rollup.rack_of(0), 0u);
  EXPECT_EQ(rollup.rack_of(3), 1u);

  rollup.begin(5.0);
  rollup.observe(0, 50.0, 100.0, false, false);
  rollup.observe(1, 70.0, 110.0, true, false);
  rollup.observe(2, 40.0, 90.0, false, true);
  rollup.observe(3, 44.0, 95.0, false, false);
  rollup.commit(3, 12);

  const RollupSample& rack0 = rollup.rack_series(0).back();
  EXPECT_DOUBLE_EQ(rack0.max_temp_c, 70.0);
  EXPECT_DOUBLE_EQ(rack0.avg_temp_c, 60.0);
  EXPECT_DOUBLE_EQ(rack0.power_w, 210.0);
  EXPECT_EQ(rack0.capped_nodes, 1u);
  EXPECT_DOUBLE_EQ(rack0.violation_node_s, 1.0);  // node 1 over 60 C for 1 s

  const RollupSample& fleet = rollup.fleet_series().back();
  EXPECT_DOUBLE_EQ(fleet.t_s, 5.0);
  EXPECT_DOUBLE_EQ(fleet.max_temp_c, 70.0);
  EXPECT_DOUBLE_EQ(fleet.avg_temp_c, 51.0);
  EXPECT_DOUBLE_EQ(fleet.power_w, 395.0);
  EXPECT_EQ(fleet.capped_nodes, 1u);
  EXPECT_EQ(fleet.autonomous_nodes, 1u);
  EXPECT_EQ(fleet.plane_failsafe_entries, 3u);
  EXPECT_EQ(fleet.sensor_rejected, 12u);
  EXPECT_EQ(rollup.samples_recorded(), 3u);  // 2 racks + fleet
}

TEST(Rollup, OutputIsORacksNotONodes) {
  RollupConfig cfg;
  cfg.enabled = true;
  cfg.nodes_per_rack = 100;
  FleetRollup rollup{1000, cfg};
  for (int interval = 0; interval < 5; ++interval) {
    rollup.begin(interval * 1.0);
    for (std::size_t n = 0; n < 1000; ++n) {
      rollup.observe(n, 45.0, 80.0, false, false);
    }
    rollup.commit(0, 0);
  }
  // 10 racks + fleet, 5 intervals — node count never appears.
  EXPECT_EQ(rollup.samples_recorded(), 55u);
}

// ---- watchdog ----

FleetRollup one_rack_rollup() {
  RollupConfig cfg;
  cfg.enabled = true;
  cfg.interval_s = 1.0;
  return FleetRollup{2, cfg};
}

void feed(FleetRollup& rollup, double t, double temp_c, double power_w,
          std::uint64_t failsafes = 0) {
  rollup.begin(t);
  rollup.observe(0, temp_c, power_w / 2.0, false, false);
  rollup.observe(1, temp_c - 5.0, power_w / 2.0, false, false);
  rollup.commit(failsafes, 0);
}

TEST(Alerts, FiresAfterHoldTimeAndClears) {
  FleetRollup rollup = one_rack_rollup();
  AlertWatchdog dog{{{"hot", AlertKind::kMaxTemp, 60.0, 2.0, false}}, rollup.rack_count()};

  feed(rollup, 0.0, 50.0, 100.0);
  dog.evaluate(0.0, rollup);
  EXPECT_TRUE(dog.events().empty());

  feed(rollup, 1.0, 65.0, 100.0);  // over, hold starts
  dog.evaluate(1.0, rollup);
  EXPECT_TRUE(dog.events().empty());

  feed(rollup, 2.0, 66.0, 100.0);  // held 1 s < 2 s
  dog.evaluate(2.0, rollup);
  EXPECT_TRUE(dog.events().empty());

  feed(rollup, 3.0, 70.0, 100.0);  // held 2 s -> fire
  dog.evaluate(3.0, rollup);
  ASSERT_EQ(dog.events().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.events()[0].fired_at_s, 3.0);
  EXPECT_DOUBLE_EQ(dog.events()[0].peak, 70.0);
  EXPECT_EQ(dog.events()[0].rack, -1);
  EXPECT_EQ(dog.firing_count(), 1u);
  EXPECT_TRUE(dog.rule_firing(0));

  feed(rollup, 4.0, 50.0, 100.0);  // back under -> clear
  dog.evaluate(4.0, rollup);
  EXPECT_DOUBLE_EQ(dog.events()[0].cleared_at_s, 4.0);
  EXPECT_EQ(dog.firing_count(), 0u);
}

TEST(Alerts, DipResetsHoldWindow) {
  FleetRollup rollup = one_rack_rollup();
  AlertWatchdog dog{{{"hot", AlertKind::kMaxTemp, 60.0, 2.0, false}}, rollup.rack_count()};
  const double temps[] = {65.0, 66.0, 50.0, 65.0, 66.0, 67.0};
  for (int i = 0; i < 6; ++i) {
    feed(rollup, i * 1.0, temps[i], 100.0);
    dog.evaluate(i * 1.0, rollup);
  }
  // The dip at t=2 restarts the window: fire lands at t=5, not t=2.
  ASSERT_EQ(dog.events().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.events()[0].fired_at_s, 5.0);
}

TEST(Alerts, PerRackScopesFireIndependently) {
  RollupConfig cfg;
  cfg.enabled = true;
  cfg.nodes_per_rack = 1;
  FleetRollup rollup{2, cfg};
  AlertWatchdog dog{{{"rack-hot", AlertKind::kMaxTemp, 60.0, 0.0, true}}, rollup.rack_count()};

  rollup.begin(1.0);
  rollup.observe(0, 70.0, 50.0, false, false);  // rack 0 hot
  rollup.observe(1, 40.0, 50.0, false, false);  // rack 1 fine
  rollup.commit(0, 0);
  dog.evaluate(1.0, rollup);
  ASSERT_EQ(dog.events().size(), 1u);
  EXPECT_EQ(dog.events()[0].rack, 0);
  EXPECT_EQ(dog.firing_count(), 1u);
}

TEST(Alerts, RateRuleUsesCounterDeltas) {
  FleetRollup rollup = one_rack_rollup();
  // 120/min = 2/s; the first sample has no delta so never fires.
  AlertWatchdog dog{{{"storm", AlertKind::kFailsafeRate, 120.0, 0.0, false}},
                    rollup.rack_count()};
  feed(rollup, 0.0, 50.0, 100.0, 0);
  dog.evaluate(0.0, rollup);
  feed(rollup, 1.0, 50.0, 100.0, 1);  // 1/s = 60/min, under
  dog.evaluate(1.0, rollup);
  EXPECT_TRUE(dog.events().empty());
  feed(rollup, 2.0, 50.0, 100.0, 4);  // 3/s = 180/min, over
  dog.evaluate(2.0, rollup);
  ASSERT_EQ(dog.events().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.events()[0].peak, 180.0);
}

TEST(Alerts, FiresLandOnTheTraceRing) {
  TraceRing ring{0, 16};
  FleetRollup rollup = one_rack_rollup();
  AlertWatchdog dog{{{"hot", AlertKind::kMaxTemp, 60.0, 0.0, false}}, rollup.rack_count()};
  dog.set_trace(&ring);
  feed(rollup, 1.0, 70.0, 100.0);
  dog.evaluate(1.0, rollup);
  feed(rollup, 2.0, 40.0, 100.0);
  dog.evaluate(2.0, rollup);

  const std::vector<TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kAlertFire);
  EXPECT_EQ(events[0].subsystem, TraceSubsystem::kAlert);
  EXPECT_EQ(events[0].i0, 0);   // rule index
  EXPECT_EQ(events[0].i1, -1);  // fleet scope
  EXPECT_DOUBLE_EQ(events[0].a, 70.0);
  EXPECT_DOUBLE_EQ(events[0].b, 60.0);
  EXPECT_EQ(events[1].type, TraceEventType::kAlertClear);
}

// ---- OpenMetrics ----

TEST(OpenMetrics, SanitizesNames) {
  EXPECT_EQ(openmetrics_name("fan.retargets"), "thermctl_fan_retargets");
  EXPECT_EQ(openmetrics_name("node.die_temp_c"), "thermctl_node_die_temp_c");
  EXPECT_EQ(openmetrics_name("weird-name!"), "thermctl_weird_name_");
}

TEST(OpenMetrics, RendersSnapshotRollupAlertsAndSpill) {
  MetricsSnapshot snap;
  snap.counters["fan.retargets"] = 42;
  snap.gauges["engine.sim_rate"] = 3.5;
  MetricsSnapshot::HistogramValue h;
  h.bounds = {10.0, 20.0};
  h.counts = {3, 4};
  h.total = 9;  // 2 overflow beyond the last bound
  h.sum = 123.0;
  snap.histograms["fan.duty_pct"] = h;

  RollupConfig cfg;
  cfg.enabled = true;
  cfg.nodes_per_rack = 1;
  FleetRollup rollup{2, cfg};
  rollup.begin(7.5);
  rollup.observe(0, 55.0, 101.0, true, false);
  rollup.observe(1, 45.0, 99.0, false, true);
  rollup.commit(2, 5);

  AlertWatchdog dog{{{"hot", AlertKind::kMaxTemp, 50.0, 0.0, false}}, rollup.rack_count()};
  dog.evaluate(7.5, rollup);

  SpillStats spill;
  spill.drains = 4;
  spill.events_spilled = 100;

  const std::string text = render_openmetrics(snap, &rollup, &dog, &spill, 7.5);

  EXPECT_NE(text.find("# TYPE thermctl_sim_time_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("thermctl_sim_time_seconds 7.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE thermctl_fan_retargets counter"), std::string::npos);
  EXPECT_NE(text.find("thermctl_fan_retargets_total 42"), std::string::npos);
  // Cumulative buckets: 3, 7, then +Inf at total.
  EXPECT_NE(text.find("thermctl_fan_duty_pct_bucket{le=\"10\"} 3"), std::string::npos);
  EXPECT_NE(text.find("thermctl_fan_duty_pct_bucket{le=\"20\"} 7"), std::string::npos);
  EXPECT_NE(text.find("thermctl_fan_duty_pct_bucket{le=\"+Inf\"} 9"), std::string::npos);
  EXPECT_NE(text.find("thermctl_fan_duty_pct_count 9"), std::string::npos);
  EXPECT_NE(text.find("thermctl_fleet_max_temp_celsius 55"), std::string::npos);
  EXPECT_NE(text.find("thermctl_fleet_power_watts 200"), std::string::npos);
  EXPECT_NE(text.find("thermctl_rack_power_watts{rack=\"1\"} 99"), std::string::npos);
  EXPECT_NE(text.find("thermctl_alerts_firing 1"), std::string::npos);
  EXPECT_NE(text.find("thermctl_alert_firing{rule=\"hot\"} 1"), std::string::npos);
  EXPECT_NE(text.find("thermctl_spill_events_total 100"), std::string::npos);
  // Terminal framing.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, NullSectionsStillWellFormed) {
  const std::string text = render_openmetrics(MetricsSnapshot{}, nullptr, nullptr, nullptr, 0.0);
  EXPECT_NE(text.find("thermctl_sim_time_seconds 0"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(Spill, OrderRestoredAcrossBudgetedDrains) {
  // Budget 1 forces node 1's older event into a later drain batch than
  // node 0's newer one: the appended stream is out of (time, node) order
  // and only the finalize-time sort restores it (the bug this regresses:
  // per-batch stable sort alone left the stream globally unsorted).
  RunTrace trace{2, 8};
  MemorySpillSink sink;
  SpillConfig cfg;
  cfg.max_events_per_drain = 1;
  TraceSpiller spiller{trace, sink, cfg};
  trace.ring(0).emit(event_at(0.5, 1));
  trace.ring(1).emit(event_at(0.2, 2));
  spiller.drain(1.0);
  spiller.drain(1.0);
  trace.ring(0).emit(event_at(1.5, 3));
  trace.ring(1).emit(event_at(1.2, 4));
  spiller.drain(2.0);
  spiller.drain(2.0);
  spiller.finish();

  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_GT(spiller.stats().deferred_drains, 0u);
  for (std::size_t i = 1; i < sink.events().size(); ++i) {
    const TraceEvent& prev = sink.events()[i - 1];
    const TraceEvent& cur = sink.events()[i];
    EXPECT_TRUE(prev.t_s < cur.t_s || (prev.t_s == cur.t_s && prev.node <= cur.node))
        << "unsorted at index " << i;
  }
  EXPECT_EQ(sink.events()[0].i0, 2);  // t=0.2 first despite later drain
}

TEST(Spill, FileReaderRestoresOrderAcrossBudgetedDrains) {
  const std::string path = test_temp_path("spill.thermtrace");
  RunTrace trace{2, 8};
  {
    FileSpillSink sink{path};
    SpillConfig cfg;
    cfg.max_events_per_drain = 1;
    TraceSpiller spiller{trace, sink, cfg};
    trace.ring(0).emit(event_at(0.5, 1));
    trace.ring(1).emit(event_at(0.2, 2));
    spiller.drain(1.0);
    spiller.drain(1.0);
    spiller.finish();
  }
  const TraceFile file = read_trace_file(path);
  ASSERT_EQ(file.events.size(), 2u);
  EXPECT_EQ(file.events[0].i0, 2);
  EXPECT_EQ(file.events[1].i0, 1);
  std::remove(path.c_str());
}

TEST(Rollup, EmptyRackRowsAreMarkedNotZero) {
  RollupConfig cfg;
  cfg.enabled = true;
  cfg.interval_s = 1.0;
  cfg.nodes_per_rack = 2;
  FleetRollup rollup{4, cfg};

  // Only rack 0's nodes report this interval; rack 1 is silent.
  rollup.begin(1.0);
  rollup.observe(0, 50.0, 100.0, false, false);
  rollup.observe(1, 52.0, 110.0, false, false);
  rollup.commit(0, 0);

  const RollupSample& rack0 = rollup.rack_series(0).back();
  EXPECT_EQ(rack0.members, 2u);
  EXPECT_DOUBLE_EQ(rack0.max_temp_c, 52.0);

  // The empty rack keeps its interval-aligned row but is explicitly marked:
  // members 0 and NaN aggregates, not a 0 °C / 0 W reading.
  const RollupSample& rack1 = rollup.rack_series(1).back();
  EXPECT_EQ(rack1.members, 0u);
  EXPECT_TRUE(std::isnan(rack1.max_temp_c));
  EXPECT_TRUE(std::isnan(rack1.avg_temp_c));
  EXPECT_TRUE(std::isnan(rack1.power_w));

  // Fleet folds only the racks that reported: no NaN poisoning, no zeros.
  const RollupSample& fleet = rollup.fleet_series().back();
  EXPECT_EQ(fleet.members, 2u);
  EXPECT_DOUBLE_EQ(fleet.max_temp_c, 52.0);
  EXPECT_DOUBLE_EQ(fleet.power_w, 210.0);

  // NaN compares false against any threshold: the empty rack can never fire
  // a per-rack temperature alert (and a 0 °C row would never have either,
  // which is exactly how the old zeros masked dead racks).
  AlertWatchdog dog{{{"hot", AlertKind::kMaxTemp, -100.0, 0.0, true}}, rollup.rack_count()};
  dog.evaluate(1.0, rollup);
  ASSERT_EQ(dog.events().size(), 1u);  // rack 0 fires (threshold -100)
  EXPECT_EQ(dog.events()[0].rack, 0);

  // An all-empty interval yields a NaN fleet row too.
  rollup.begin(2.0);
  rollup.commit(0, 0);
  EXPECT_EQ(rollup.fleet_series().back().members, 0u);
  EXPECT_TRUE(std::isnan(rollup.fleet_series().back().max_temp_c));
}

TEST(Alerts, RejectsPerRackRateRules) {
  RollupConfig cfg;
  cfg.enabled = true;
  FleetRollup rollup{2, cfg};
  // The rate kinds derive from fleet-wide cumulative counters; per_rack on
  // them used to be silently ignored — now it is a rejected config error.
  EXPECT_DEATH(
      (AlertWatchdog{{{"fs", AlertKind::kFailsafeRate, 1.0, 0.0, true}}, rollup.rack_count()}),
      "fleet-scope only");
  EXPECT_DEATH(
      (AlertWatchdog{{{"sf", AlertKind::kSensorFaultRate, 1.0, 0.0, true}},
                     rollup.rack_count()}),
      "fleet-scope only");
}

TEST(OpenMetrics, NonFiniteValuesUseCanonicalSpellings) {
  MetricsSnapshot snap;
  snap.gauges["gauge.missing"] = std::numeric_limits<double>::quiet_NaN();
  snap.gauges["gauge.ceiling"] = std::numeric_limits<double>::infinity();
  snap.gauges["gauge.floor"] = -std::numeric_limits<double>::infinity();

  const std::string text = render_openmetrics(snap, nullptr, nullptr, nullptr, 1.0);
  EXPECT_NE(text.find("thermctl_gauge_missing NaN\n"), std::string::npos);
  EXPECT_NE(text.find("thermctl_gauge_ceiling +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("thermctl_gauge_floor -Inf\n"), std::string::npos);
  // The ABNF-violating printf spellings must not appear anywhere.
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);

  // An empty-rack rollup row flows through as a valid NaN sample.
  RollupConfig cfg;
  cfg.enabled = true;
  cfg.nodes_per_rack = 1;
  FleetRollup rollup{2, cfg};
  rollup.begin(1.0);
  rollup.observe(0, 50.0, 100.0, false, false);
  rollup.commit(0, 0);
  const std::string with_rollup =
      render_openmetrics(MetricsSnapshot{}, &rollup, nullptr, nullptr, 1.0);
  EXPECT_NE(with_rollup.find("thermctl_rack_max_temp_celsius{rack=\"1\"} NaN"),
            std::string::npos);
  EXPECT_EQ(with_rollup.find("nan"), std::string::npos);
}

TEST(OpenMetrics, CapturingSinkKeepsLatest) {
  CapturingTelemetrySink sink;
  sink.on_exposition(1.0, "first");
  sink.on_exposition(2.0, "second");
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.last(), "second");
  EXPECT_DOUBLE_EQ(sink.last_t_s(), 2.0);
}

}  // namespace
}  // namespace thermctl::obs
