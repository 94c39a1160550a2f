// Host-side measurement helpers: wall clock, resident memory, and running a
// measurement in a fresh child process.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <type_traits>

namespace thermbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Current resident set size in bytes (0 where /proc is unavailable).
[[nodiscard]] std::size_t current_rss_bytes();

/// Peak resident set size of the process so far, in bytes.
[[nodiscard]] std::size_t peak_rss_bytes();

/// Hands freed heap pages back to the OS, so an RSS delta across the next
/// allocation burst measures that burst rather than reused pages.
void trim_heap();

/// Runs `fn` in a forked child and copies its result back through a pipe;
/// false when the child failed (exception, assertion, signal). Call only
/// while the calling process has a single thread. Every run handed to this
/// starts from the same fresh-process allocator state, which a run's cost
/// depends on: glibc's mmap threshold moves up with the largest mmapped
/// block freed so far, so the first spill drains of a process page-fault
/// heavily and later ones do not.
bool run_in_child_bytes(void* out, std::size_t size,
                        const std::function<void(void* result)>& fn);

template <typename Result>
bool run_in_child(Result& out, const std::function<Result()>& fn) {
  static_assert(std::is_trivially_copyable_v<Result>, "results cross a pipe as bytes");
  return run_in_child_bytes(&out, sizeof out, [&fn](void* result) {
    const Result r = fn();
    std::memcpy(result, &r, sizeof r);
  });
}

}  // namespace thermbench
