#include "runtime/sweep.hpp"

#include "runtime/parallel_runner.hpp"

namespace thermctl::runtime {

std::vector<core::ExperimentResult> run_sweep(const std::vector<core::ExperimentConfig>& points,
                                              SweepOptions options) {
  ParallelRunner runner{options.threads};
  return runner.map<core::ExperimentResult>(
      points.size(), [&points](std::size_t i) { return core::run_experiment(points[i]); });
}

std::uint64_t sweep_point_seed(std::uint64_t base_seed, std::size_t point) {
  // splitmix64 of (base + point + 1): adjacent points land in unrelated
  // stream neighborhoods, and point 0 never collides with the base itself.
  std::uint64_t z = base_seed + (static_cast<std::uint64_t>(point) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace thermctl::runtime
