#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace thermbench {

namespace {

/// The tail rule on a sample of n: the reported percentile, and the 1-based
/// nearest rank it reads (n, the maximum, when no percentile qualifies).
/// Tenths of a percent keep the search in exact integer arithmetic: the
/// nearest rank of p is ceil(p/100 * n), and ten samples must sit above it.
Tail tail_rank(std::size_t n, double max_percentile, std::size_t& rank) {
  Tail t;
  t.samples = n;
  rank = n;
  const auto cap = static_cast<long long>(std::floor(max_percentile * 10.0 + 1e-9));
  for (long long tenths = cap; tenths > 0; --tenths) {
    const auto r = static_cast<std::size_t>(
        (static_cast<unsigned long long>(tenths) * n + 999) / 1000);  // ceil
    if (r >= 1 && n - r >= 10) {
      t.percentile = static_cast<double>(tenths) / 10.0;
      t.beyond = n - r;
      rank = r;
      break;
    }
  }
  return t;
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  const std::size_t n = xs.size();
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  const double upper = *mid;
  if (n % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(xs.begin(), mid);
  return (lower + upper) / 2.0;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(xs.begin(), xs.end());
  // statistics.quantiles, method='exclusive', n=4: m = len + 1, the i-th cut
  // sits at i*m/4 (1-based), clamped to [1, len-1], linearly interpolated
  // with exact integer weights.
  const long long len = static_cast<long long>(xs.size());
  const long long m = len + 1;
  double cut[3] = {};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, len - 1);
    const long long delta = i * m - j * 4;
    const auto lo = static_cast<std::size_t>(j - 1);
    cut[i - 1] = (xs[lo] * static_cast<double>(4 - delta) +
                  xs[lo + 1] * static_cast<double>(delta)) /
                 4.0;
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

Tail tail(std::vector<double> xs, double max_percentile) {
  if (xs.empty()) {
    throw std::invalid_argument("tail of an empty sample");
  }
  std::size_t rank = 0;
  Tail t = tail_rank(xs.size(), max_percentile, rank);
  const auto at = xs.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(xs.begin(), at, xs.end());
  t.value = *at;
  return t;
}

NsHistogram::NsHistogram(std::uint64_t dense_limit_ns) : dense_(dense_limit_ns, 0) {}

void NsHistogram::add(std::uint64_t ns) {
  if (ns < dense_.size()) {
    ++dense_[ns];
  } else {
    sparse_.push_back(ns);
  }
  ++count_;
}

void NsHistogram::merge(const NsHistogram& other) {
  if (other.dense_.size() != dense_.size()) {
    throw std::invalid_argument("merging histograms with different dense limits");
  }
  for (std::size_t v = 0; v < dense_.size(); ++v) {
    dense_[v] += other.dense_[v];
  }
  sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
  count_ += other.count_;
}

std::uint64_t NsHistogram::kth(std::uint64_t k) const {
  if (k >= count_) {
    throw std::out_of_range("histogram rank beyond its sample count");
  }
  for (std::size_t v = 0; v < dense_.size(); ++v) {
    if (k < dense_[v]) {
      return v;
    }
    k -= dense_[v];
  }
  std::sort(sparse_.begin(), sparse_.end());
  return sparse_[k];
}

double NsHistogram::median_us() const {
  if (count_ == 0) {
    throw std::invalid_argument("median of an empty sample");
  }
  const std::uint64_t upper = kth(count_ / 2);
  const std::uint64_t lower = count_ % 2 == 1 ? upper : kth(count_ / 2 - 1);
  return (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0 / 1e3;
}

Tail NsHistogram::tail_us(double max_percentile) const {
  if (count_ == 0) {
    throw std::invalid_argument("tail of an empty sample");
  }
  std::size_t rank = 0;
  Tail t = tail_rank(count_, max_percentile, rank);
  t.value = static_cast<double>(kth(rank - 1)) / 1e3;
  return t;
}

}  // namespace thermbench
