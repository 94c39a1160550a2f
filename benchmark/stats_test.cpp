// Unit tests for the benchmark's order statistics. Expected quartiles are
// what Python's statistics.quantiles(values, n=4) returns for the same
// input, the reference compare.py uses.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_true(const char* what, bool ok) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 1; i <= n; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  return xs;
}

}  // namespace

int main() {
  using namespace thermbench;

  expect_near("median odd", median({5.0, 1.0, 3.0}), 3.0);
  expect_near("median even", median({4.0, 1.0, 3.0, 2.0}), 2.5);
  expect_near("median single", median({7.0}), 7.0);

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q10 = quartiles(ramp(10));
  expect_near("q1 of 1..10", q10.q1, 2.75);
  expect_near("q2 of 1..10", q10.median, 5.5);
  expect_near("q3 of 1..10", q10.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles q2 = quartiles({2.0, 1.0});
  expect_near("q1 of 1,2", q2.q1, 0.75);
  expect_near("q2 of 1,2", q2.median, 1.5);
  expect_near("q3 of 1,2", q2.q3, 2.25);
  // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
  const Quartiles q5 = quartiles({3.0, 1.0, 4.0, 1.0, 5.0});
  expect_near("q1 of 5 values", q5.q1, 1.0);
  expect_near("q2 of 5 values", q5.median, 3.0);
  expect_near("q3 of 5 values", q5.q3, 4.5);

  // 1000 samples: p99 has exactly ten samples beyond it.
  const Tail t1000 = tail(ramp(1000));
  expect_near("p99 of 1..1000", t1000.percentile, 99.0);
  expect_near("p99 value of 1..1000", t1000.value, 990.0);
  expect_true("p99 of 1..1000 has 10 beyond", t1000.beyond == 10 && t1000.samples == 1000);
  // 500 samples: the highest percentile with ten beyond is p98.
  const Tail t500 = tail(ramp(500));
  expect_near("tail percentile of 1..500", t500.percentile, 98.0);
  expect_near("tail value of 1..500", t500.value, 490.0);
  expect_true("tail of 1..500 has 10 beyond", t500.beyond == 10);
  // 100000 samples stay capped at p99 (1000 beyond).
  const Tail tbig = tail(ramp(100000));
  expect_near("cap at p99", tbig.percentile, 99.0);
  expect_true("cap keeps 1000 beyond", tbig.beyond == 1000);
  // Too few samples for any percentile with ten beyond: report the max.
  const Tail tiny = tail({3.0, 9.0, 1.0});
  expect_near("tiny sample percentile", tiny.percentile, 0.0);
  expect_near("tiny sample value", tiny.value, 9.0);
  // Order of the input does not matter.
  std::vector<double> shuffled = ramp(1000);
  std::swap(shuffled[0], shuffled[999]);
  std::swap(shuffled[10], shuffled[500]);
  expect_near("tail is order-free", tail(shuffled).value, 990.0);

  // The histogram agrees with the vector statistics, whether samples land
  // in the dense counters or the sparse overflow.
  for (std::uint64_t dense_limit : {std::uint64_t{100000}, std::uint64_t{100}}) {
    NsHistogram h{dense_limit};
    for (std::uint64_t ns = 1000; ns >= 1; --ns) {
      h.add(ns);
    }
    expect_true("histogram count", h.count() == 1000);
    expect_near("histogram median", h.median_us(), median(ramp(1000)) / 1e3);
    const Tail ht = h.tail_us();
    expect_near("histogram p99", ht.value, 0.990);
    expect_true("histogram p99 rule", ht.percentile == 99.0 && ht.beyond == 10);
  }
  NsHistogram odd;
  for (std::uint64_t ns : {7u, 3u, 250000u, 5u, 3u}) {
    odd.add(ns);
  }
  expect_near("histogram odd median", odd.median_us(), 0.005);
  expect_near("histogram tiny tail is the max", odd.tail_us().value, 250.0);

  // Merging two halves, each with dense and sparse samples, equals adding
  // everything to one histogram.
  NsHistogram low{600};
  NsHistogram high{600};
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) {
    (ns % 2 == 0 ? low : high).add(ns);
  }
  low.merge(high);
  expect_true("merged count", low.count() == 1000);
  expect_near("merged median", low.median_us(), median(ramp(1000)) / 1e3);
  expect_near("merged p99", low.tail_us().value, 0.990);
  bool merge_threw = false;
  try {
    low.merge(NsHistogram{10});
  } catch (const std::invalid_argument&) {
    merge_threw = true;
  }
  expect_true("merging unlike histograms throws", merge_threw);

  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect_true("median of empty throws", threw);
  threw = false;
  try {
    (void)quartiles({1.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect_true("quartiles of one sample throw", threw);

  if (failures == 0) {
    std::printf("thermbench stats: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
