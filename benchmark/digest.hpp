// sim_digest: an FNV-1a hash over the bit patterns of everything a run
// simulated — every RunResult series and summary plus the controllers'
// event counts. Host timing never enters it, so a change that only makes
// the simulator faster leaves the digest unchanged, and two runs of one
// invocation (or the traced and untraced runs) must agree exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"

namespace thermbench {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t len);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a run plus per-node controller event counts (any order the
/// caller keeps fixed, e.g. fan then tDVFS per node).
[[nodiscard]] std::uint64_t sim_digest(const thermctl::cluster::RunResult& run,
                                       const std::vector<std::uint64_t>& controller_events);

[[nodiscard]] std::string hex(std::uint64_t digest);

}  // namespace thermbench
