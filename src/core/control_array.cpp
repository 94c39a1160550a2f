#include "core/control_array.hpp"

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/assert.hpp"

namespace thermctl::core {
namespace {

/// Intern key: the exact bits of the modes, N and Pp. `modes` views storage
/// owned by the caller (lookups) or by the interned fill (map keys).
struct FillKey {
  std::span<const double> modes;
  std::size_t n = 0;
  int pp = 0;
};

struct FillKeyLess {
  bool operator()(const FillKey& a, const FillKey& b) const {
    if (a.n != b.n) {
      return a.n < b.n;
    }
    if (a.pp != b.pp) {
      return a.pp < b.pp;
    }
    if (a.modes.size() != b.modes.size()) {
      return a.modes.size() < b.modes.size();
    }
    return std::memcmp(a.modes.data(), b.modes.data(), a.modes.size_bytes()) < 0;
  }
};

/// Eq. (1)'s cells for `m` physical modes at bound `n` and special index
/// `np`, as indices into the modes.
std::vector<std::uint32_t> eq1_fill(std::size_t m, std::size_t n, std::size_t np) {
  std::vector<std::uint32_t> picks(n);

  // Cells [n_p, N] (1-based) take the most effective mode g_N.
  for (std::size_t i = np; i <= n; ++i) {
    picks[i - 1] = static_cast<std::uint32_t>(m - 1);
  }

  // Cells [1, n_p−1] take an evenly extracted subset of the physical modes,
  // least effective first. The ratio (n_p−1)/m decides whether modes are
  // skipped (< 1) or duplicated (> 1, when N exceeds the physical count).
  const std::size_t ramp = np - 1;
  for (std::size_t i = 1; i <= ramp; ++i) {
    // floor; < m since i-1 < ramp
    picks[i - 1] = static_cast<std::uint32_t>((i - 1) * m / ramp);
  }
  // §3.2.2 boundary conditions: "The first array element g1 always stores
  // the least effective temperature control mode, the last element gN always
  // stores the most effective mode." The ramp guarantees this whenever
  // n_p >= 2; for n_p == 1 (maximally aggressive fills) cell 1 must be
  // forced back to the least effective mode.
  picks.front() = 0;
  return picks;
}

}  // namespace

ThermalControlArray::ThermalControlArray(std::vector<double> available_modes, std::size_t n,
                                         PolicyParam pp) {
  THERMCTL_ASSERT(!available_modes.empty(), "need at least one physical mode");
  THERMCTL_ASSERT(n >= 2, "control array needs at least two cells");
  fill_ = lookup(available_modes, n, pp);
}

std::size_t ThermalControlArray::eq1_np(PolicyParam pp, std::size_t n) {
  const double num = static_cast<double>(pp.value - PolicyParam::kMin) *
                     static_cast<double>(n - 1);
  const double den = static_cast<double>(PolicyParam::kMax - PolicyParam::kMin);
  return static_cast<std::size_t>(std::floor(num / den)) + 1;
}

/// Fills keyed by (modes, N, Pp), held weakly so each dies with its last
/// array. Rigs are built on several runner threads at once, hence the lock.
struct ThermalControlArray::Intern {
  std::mutex mu;
  std::map<FillKey, std::weak_ptr<const Fill>, FillKeyLess> fills;

  static Intern& get() {
    // Leaked on purpose: an array with static storage duration may be
    // destroyed after any function-local static, and its fill's deleter
    // still takes the lock and edits the map.
    static auto* const intern = new Intern;
    return *intern;
  }
};

std::shared_ptr<const ThermalControlArray::Fill> ThermalControlArray::lookup(
    std::span<const double> modes, std::size_t n, PolicyParam pp) {
  Intern& intern = Intern::get();
  const std::lock_guard<std::mutex> lock{intern.mu};
  if (const auto it = intern.fills.find(FillKey{modes, n, pp.value}); it != intern.fills.end()) {
    if (auto live = it->second.lock()) {
      return live;
    }
    // Its last array is gone and its deleter is waiting on the lock, so the
    // storage the key views is still alive. Replace the entry.
    intern.fills.erase(it);
  }

  const std::size_t np = eq1_np(pp, n);
  THERMCTL_ASSERT(np >= 1 && np <= n, "Eq. (1) produced an out-of-range n_p");
  // The deleter drops the map entry before the storage its key views, unless
  // a lookup has already replaced it with a live fill.
  const auto release = [](const Fill* dead) {
    {
      Intern& owner = Intern::get();
      const std::lock_guard<std::mutex> relock{owner.mu};
      const auto it =
          owner.fills.find(FillKey{dead->available, dead->cells.size(), dead->pp.value});
      if (it != owner.fills.end() && it->second.expired()) {
        owner.fills.erase(it);
      }
    }
    delete dead;
  };
  std::vector<std::uint32_t> picks = eq1_fill(modes.size(), n, np);
  std::vector<double> cells(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells[i] = modes[picks[i]];
  }
  auto* fill = new Fill{std::vector<double>(modes.begin(), modes.end()), std::move(picks),
                        std::move(cells), pp, np};
  std::shared_ptr<const Fill> shared{fill, release};
  intern.fills.emplace(FillKey{fill->available, n, pp.value}, shared);
  return shared;
}

std::size_t ThermalControlArray::interned_fills() {
  Intern& intern = Intern::get();
  const std::lock_guard<std::mutex> lock{intern.mu};
  return intern.fills.size();
}

double ThermalControlArray::mode(std::size_t i) const {
  THERMCTL_ASSERT(i < size(), "control-array index out of range");
  return fill_->cells[i];
}

std::size_t ThermalControlArray::mode_index(std::size_t i) const {
  THERMCTL_ASSERT(i < size(), "control-array index out of range");
  return fill_->picks[i];
}

void ThermalControlArray::set_policy(PolicyParam pp) {
  fill_ = lookup(fill_->available, size(), pp);
}

std::size_t ThermalControlArray::index_of_nearest(double mode_value) const {
  const std::vector<double>& cells = fill_->cells;
  std::size_t best = 0;
  double best_err = std::abs(cells[0] - mode_value);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const double err = std::abs(cells[i] - mode_value);
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  return best;
}

}  // namespace thermctl::core
