// The thermal control array (§3.2.2) — the paper's unifying abstraction.
//
// Every thermal technique (fan PWM, DVFS, sleep states, …) is reduced to an
// array of N modes stored in non-descending order of cooling effectiveness.
// The user policy parameter Pp shapes how the array is filled via Eq. (1):
//
//   n_p = ⌊ (Pp − Pmin)(N − 1) / (Pmax − Pmin) ⌋ + 1
//
// Cells [n_p, N] (1-based) hold the most effective mode g_N; cells
// [1, n_p−1] hold a subset of the physically available modes *evenly
// extracted* from the full set. A small Pp ⇒ small n_p ⇒ most of the array
// is the strongest mode and a small index increment produces a large cooling
// increment (aggressive, temperature-oriented). A large Pp ⇒ a long gentle
// ramp (cost-oriented).
//
// Modes are doubles whose *meaning* belongs to the technique (duty percent
// for fans, GHz for DVFS); the array itself only promises the effectiveness
// ordering given at construction.
//
// A fill depends only on (modes, N, Pp), so every array with the same three
// shares one immutable fill: an array is a handle into a process-wide intern
// keyed by the exact mode bits, N and Pp. A fleet of identical controllers
// holds one table per policy, not one per node. Fills are held weakly by the
// intern and die with their last array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/policy.hpp"

namespace thermctl::core {

class ThermalControlArray {
 public:
  /// `available_modes` must be ordered least → most effective (e.g. fan duty
  /// ascending, CPU frequency descending). `n` is the array bound N, which
  /// may exceed the number of physical modes (duplicates are then used).
  ThermalControlArray(std::vector<double> available_modes, std::size_t n, PolicyParam pp);

  /// Number of cells N.
  [[nodiscard]] std::size_t size() const { return fill_->cells.size(); }

  /// Eq. (1)'s special index (1-based, as in the paper).
  [[nodiscard]] std::size_t np() const { return fill_->np; }

  /// Mode at 0-based index i (cell i+1 in the paper's 1-based notation).
  [[nodiscard]] double mode(std::size_t i) const;

  /// Index into available_modes() of the mode at 0-based index i.
  [[nodiscard]] std::size_t mode_index(std::size_t i) const;

  /// The least / most effective modes (cells 1 and N).
  [[nodiscard]] double least_effective() const { return fill_->cells.front(); }
  [[nodiscard]] double most_effective() const { return fill_->cells.back(); }

  /// Views into the shared fill: arrays with equal (modes, N, Pp) return the
  /// same storage.
  [[nodiscard]] std::span<const double> cells() const { return fill_->cells; }
  [[nodiscard]] std::span<const double> available_modes() const { return fill_->available; }
  [[nodiscard]] PolicyParam policy() const { return fill_->pp; }

  /// Re-points this array at the fill for a new policy (user re-tunes Pp at
  /// runtime). Other arrays sharing the old fill are unaffected.
  void set_policy(PolicyParam pp);

  /// Index of the cell whose mode is nearest `mode_value` (first match).
  [[nodiscard]] std::size_t index_of_nearest(double mode_value) const;

  /// Eq. (1) by itself, exposed for tests and documentation.
  [[nodiscard]] static std::size_t eq1_np(PolicyParam pp, std::size_t n);

  /// Number of fills alive in the process-wide intern (diagnostics / tests).
  [[nodiscard]] static std::size_t interned_fills();

 private:
  struct Fill {
    std::vector<double> available;
    std::vector<std::uint32_t> picks;  // each cell's index into `available`
    std::vector<double> cells;         // available[picks[i]]
    PolicyParam pp;
    std::size_t np = 1;
  };

  struct Intern;

  /// The interned fill for (modes, n, pp), built on first use.
  [[nodiscard]] static std::shared_ptr<const Fill> lookup(std::span<const double> modes,
                                                          std::size_t n, PolicyParam pp);

  std::shared_ptr<const Fill> fill_;
};

}  // namespace thermctl::core
