// Parallel experiment sweeps.
//
// A sweep is a vector of ExperimentConfig points run independently; each
// point builds its own full rig (cluster -> engine -> controllers) inside
// the worker, so nothing is shared between concurrent runs except the
// process-wide logger (which is thread-safe). Results come back in point
// order and are bit-identical to running the same configs serially — the
// engine is deterministic and every stochastic input is derived from the
// point's own seed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"

namespace thermctl::runtime {

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (useful for
  /// equivalence checks and as the degenerate case on small machines).
  std::size_t threads = 0;
};

/// Runs every config and returns results in the same order.
[[nodiscard]] std::vector<core::ExperimentResult> run_sweep(
    const std::vector<core::ExperimentConfig>& points, SweepOptions options = {});

/// Derives a decorrelated per-point seed from a sweep's base seed
/// (splitmix64 mix), for sweeps whose points should not share noise streams.
/// Paper-figure sweeps intentionally reuse one seed per point instead, so
/// policy is the only thing that differs between points.
[[nodiscard]] std::uint64_t sweep_point_seed(std::uint64_t base_seed, std::size_t point);

}  // namespace thermctl::runtime
