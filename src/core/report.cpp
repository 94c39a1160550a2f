#include "core/report.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/json_writer.hpp"

namespace thermctl::core {

void write_run_summary_json(const std::string& path, const std::string& name,
                            const ExperimentResult& result) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    throw std::runtime_error("run summary: cannot open " + path + " for writing");
  }
  obs::JsonWriter w{out};
  w.begin_object();
  w.field("schema", "thermctl-run-summary-v1");
  w.field("name", name);
  w.field("completed", result.run.app_completed);
  w.field("exec_time_s", result.run.exec_time_s);
  w.field("max_die_temp_c", result.run.max_die_temp());
  w.field("avg_node_power_w", result.run.avg_power_w());
  w.field("freq_transitions", static_cast<std::uint64_t>(result.run.total_freq_transitions()));
  w.field("first_dvfs_trigger_s", result.first_dvfs_trigger_s);

  w.begin_array("nodes");
  for (std::size_t i = 0; i < result.run.summaries.size(); ++i) {
    const cluster::NodeSummary& s = result.run.summaries[i];
    w.begin_object();
    w.field("node", static_cast<std::uint64_t>(i));
    w.field("avg_die_temp_c", s.avg_die_temp);
    w.field("max_die_temp_c", s.max_die_temp);
    w.field("avg_duty_pct", s.avg_duty);
    w.field("avg_power_w", s.avg_power_w);
    w.field("energy_j", s.energy_j);
    w.field("freq_transitions", static_cast<std::uint64_t>(s.freq_transitions));
    w.field("prochot_events", static_cast<std::uint64_t>(s.prochot_events));
    w.field("i2c_retries", s.i2c_retries);
    w.field("i2c_exhausted", s.i2c_exhausted);
    w.field("i2c_naks", s.i2c_naks);
    w.field("i2c_bus_faults", s.i2c_bus_faults);
    w.end_object();
  }
  w.end_array();

  const ControllerFaultStats& fs = result.fault_stats;
  w.begin_object("faults");
  w.field("failsafe_entries", fs.failsafe_entries);
  w.field("failsafe_exits", fs.failsafe_exits);
  w.field("dvfs_hold_entries", fs.dvfs_hold_entries);
  w.field("dvfs_held_ticks", fs.dvfs_held_ticks);
  w.field("sensor_rejected", fs.sensor_rejected);
  w.field("sensor_stuck_detections", fs.sensor_stuck_detections);
  w.field("sensor_failures", fs.sensor_failures);
  w.field("sensor_recoveries", fs.sensor_recoveries);
  w.end_object();

  if (result.trace != nullptr) {
    w.begin_object("trace");
    w.field("nodes", static_cast<std::uint64_t>(result.trace->node_count()));
    w.field("emitted", result.trace->total_emitted());
    w.field("dropped", result.trace->total_dropped());
    w.begin_array("dropped_by_node");
    for (std::uint64_t d : result.trace->dropped_by_node()) {
      w.value(d);
    }
    w.end_array();
    w.end_object();
  }

  if (result.spill.has_value()) {
    const obs::SpillStats& sp = *result.spill;
    w.begin_object("spill");
    w.field("drains", sp.drains);
    w.field("events_spilled", sp.events_spilled);
    w.field("events_lost", sp.events_lost);
    w.field("deferred_drains", sp.deferred_drains);
    w.begin_array("lost_by_node");
    for (std::uint64_t d : sp.lost_by_node) {
      w.value(d);
    }
    w.end_array();
    w.end_object();
  }

  if (result.rollup != nullptr) {
    const obs::FleetRollup& r = *result.rollup;
    w.begin_object("rollup");
    w.field("interval_s", r.config().interval_s);
    w.field("nodes_per_rack", static_cast<std::uint64_t>(r.config().nodes_per_rack));
    w.field("violation_temp_c", r.config().violation_temp_c);
    w.field("racks", static_cast<std::uint64_t>(r.rack_count()));
    w.field("samples_recorded", r.samples_recorded());
    w.begin_array("fleet");
    for (const obs::RollupSample& s : r.fleet_series()) {
      w.begin_object();
      w.field("t_s", s.t_s);
      w.field("max_temp_c", s.max_temp_c);
      w.field("avg_temp_c", s.avg_temp_c);
      w.field("power_w", s.power_w);
      w.field("capped_nodes", static_cast<std::uint64_t>(s.capped_nodes));
      w.field("autonomous_nodes", static_cast<std::uint64_t>(s.autonomous_nodes));
      w.field("violation_node_s", s.violation_node_s);
      w.field("plane_failsafe_entries", s.plane_failsafe_entries);
      w.field("sensor_rejected", s.sensor_rejected);
      w.end_object();
    }
    w.end_array();
    // Per-rack series stay O(racks · intervals); the summary keeps one
    // aggregate row per rack so fleet-scale files stay small.
    w.begin_array("racks_summary");
    for (std::size_t rack = 0; rack < r.rack_count(); ++rack) {
      const std::vector<obs::RollupSample>& series = r.rack_series(rack);
      double peak_temp = 0.0;
      double peak_power = 0.0;
      double violation_node_s = 0.0;
      for (const obs::RollupSample& s : series) {
        peak_temp = std::max(peak_temp, s.max_temp_c);
        peak_power = std::max(peak_power, s.power_w);
        violation_node_s += s.violation_node_s;
      }
      w.begin_object();
      w.field("rack", static_cast<std::uint64_t>(rack));
      w.field("samples", static_cast<std::uint64_t>(series.size()));
      w.field("peak_temp_c", peak_temp);
      w.field("peak_power_w", peak_power);
      w.field("violation_node_s", violation_node_s);
      w.field("last_capped_nodes",
              static_cast<std::uint64_t>(series.empty() ? 0 : series.back().capped_nodes));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (!result.alert_rules.empty()) {
    w.begin_object("alerts");
    w.begin_array("rules");
    for (const obs::AlertRule& rule : result.alert_rules) {
      w.begin_object();
      w.field("name", rule.name);
      w.field("kind", obs::to_string(rule.kind));
      w.field("threshold", rule.threshold);
      w.field("for_s", rule.for_s);
      w.field("per_rack", rule.per_rack);
      w.end_object();
    }
    w.end_array();
    w.begin_array("events");
    for (const obs::AlertEvent& e : result.alerts) {
      w.begin_object();
      w.field("rule", static_cast<std::uint64_t>(e.rule));
      w.field("name", e.name);
      w.field("rack", static_cast<std::int64_t>(e.rack));
      w.field("fired_at_s", e.fired_at_s);
      w.field("cleared_at_s", e.cleared_at_s);
      w.field("peak", e.peak);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (!result.metrics.empty()) {
    w.begin_object("metrics");
    w.begin_object("counters");
    for (const auto& [k, v] : result.metrics.counters) {
      w.field(k, v);
    }
    w.end_object();
    w.begin_object("gauges");
    for (const auto& [k, v] : result.metrics.gauges) {
      w.field(k, v);
    }
    w.end_object();
    w.begin_object("histograms");
    for (const auto& [k, h] : result.metrics.histograms) {
      w.begin_object(k);
      w.begin_array("bounds");
      for (double bound : h.bounds) {
        w.value(bound);
      }
      w.end_array();
      w.begin_array("counts");
      for (std::uint64_t c : h.counts) {
        w.value(c);
      }
      w.end_array();
      w.field("total", h.total);
      w.field("sum", h.sum);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  out << "\n";
  if (!out) {
    throw std::runtime_error("run summary: write failed for " + path);
  }
}

}  // namespace thermctl::core
