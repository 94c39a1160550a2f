// Deterministic fan-out of independent jobs across a thread pool.
//
// The runner owns the scatter/gather protocol the experiment sweeps need:
// jobs are indexed 0..count-1, each job writes exactly its own result slot,
// and the returned vector is in input order regardless of which worker
// finished first — so a parallel sweep is observationally identical to the
// same sweep run serially, provided each job is self-contained (owns its
// cluster, engine and RNG state; see docs/performance.md).
//
// Exceptions thrown by a job are captured and rethrown on the calling
// thread, lowest job index first.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "runtime/thread_pool.hpp"

namespace thermctl::runtime {

class ParallelRunner {
 public:
  /// `threads` = 0 picks default_thread_count(). A single-thread runner is a
  /// valid degenerate case: everything runs serially on the one worker.
  explicit ParallelRunner(std::size_t threads = 0) : pool_(threads) {}

  /// Runs `job(i)` for i in [0, count) across the pool and returns the
  /// results in index order. Blocks until every job finished.
  template <typename R>
  std::vector<R> map(std::size_t count, const std::function<R(std::size_t)>& job) {
    THERMCTL_ASSERT(static_cast<bool>(job), "job must be callable");
    std::vector<std::optional<R>> slots(count);
    std::vector<std::exception_ptr> errors(count);
    for (std::size_t i = 0; i < count; ++i) {
      pool_.submit([&, i] {
        try {
          slots[i].emplace(job(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool_.wait_idle();
    for (std::size_t i = 0; i < count; ++i) {
      if (errors[i]) {
        std::rethrow_exception(errors[i]);
      }
    }
    std::vector<R> results;
    results.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      results.push_back(std::move(*slots[i]));
    }
    return results;
  }

 private:
  ThreadPool pool_;
};

}  // namespace thermctl::runtime
