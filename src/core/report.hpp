// Run reporting: the machine-readable summary of an ExperimentResult.
//
// One JSON file per run: run aggregates, per-node summaries, fault
// counters, trace bookkeeping and the live-pipeline sections. The benches
// write it beside their CSV series. Pure formatting: all analysis stays in
// the metrics layer.
#pragma once

#include <string>

#include "core/experiment.hpp"

namespace thermctl::core {

/// Writes the machine-readable run-summary JSON: run aggregates, per-node
/// summaries, fault counters, trace bookkeeping, and (when telemetry was on)
/// the merged metrics snapshot. Throws std::runtime_error on I/O failure.
void write_run_summary_json(const std::string& path, const std::string& name,
                            const ExperimentResult& result);

}  // namespace thermctl::core
