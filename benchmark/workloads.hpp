// Workload entry points and the options every workload takes.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace thermbench {

struct Options {
  std::string workload;
  /// Seeds every generated input (load phases, room geometry, node noise).
  std::uint64_t seed = 1;
  /// Measurement budget; each workload sizes its run from it (README.md).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny sizes for the ctest smoke pass.
  bool smoke = false;
  /// Writable directory for run-time files (the daemon's UNIX socket).
  std::string scratch = ".";
  /// Engine shards for the fleet workloads; 0 keeps each workload's own
  /// (fleet_100k 1, fleet_16k_dc 4). For scaling experiments only: a run
  /// with another value is not the benchmark's workload.
  int workers = 0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome run_fleet(const Options& options, bool datacenter, Report& report);
Outcome run_paper_sweep(const Options& options, Report& report);
Outcome run_daemon_scrape(const Options& options, Report& report);

}  // namespace thermbench
