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
// The fill is arithmetic, not a table. With M physical modes and 0-based
// cell c, cell c holds modes[mode_index(c)], where
//
//   mode_index(c) = 0                      if c == 0 (the §3.2.2 g_1 pin)
//                 = M − 1                  if c ≥ n_p − 1 (the g_N plateau)
//                 = ⌊ c·M / (n_p − 1) ⌋    otherwise (the even ramp)
//
// So an array is a 16-byte value: a view of the modes plus N, n_p and Pp.
// It does not own the modes. Whoever builds one keeps the modes alive, at
// the same address, for as long as the array or any copy of it is used: a
// technique family owns its mode list once and every member copies the
// family's array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/policy.hpp"

namespace thermctl::core {

class ThermalControlArray {
 public:
  /// `available_modes` must be ordered least → most effective (e.g. fan duty
  /// ascending, CPU frequency descending) and must outlive the array and its
  /// copies. `n` is the array bound N, which may exceed the number of
  /// physical modes (duplicates are then used).
  ThermalControlArray(std::span<const double> available_modes, std::size_t n, PolicyParam pp);
  /// A temporary mode list would die before the array that views it.
  ThermalControlArray(std::vector<double>&& available_modes, std::size_t n,
                      PolicyParam pp) = delete;

  /// Number of cells N.
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Eq. (1)'s special index (1-based, as in the paper).
  [[nodiscard]] std::size_t np() const { return np_; }

  /// Mode at 0-based index i (cell i+1 in the paper's 1-based notation).
  [[nodiscard]] double mode(std::size_t i) const { return modes_[mode_index(i)]; }

  /// Index into available_modes() of the mode at 0-based index i.
  [[nodiscard]] std::size_t mode_index(std::size_t i) const {
    THERMCTL_ASSERT(i < n_, "control-array index out of range");
    if (i == 0) {
      return 0;
    }
    if (i >= np_ - 1u) {
      return m_ - 1u;
    }
    // i < N and M both fit in 16 bits, so the product fits a 32-bit divide.
    return static_cast<std::uint32_t>(i) * m_ / (np_ - 1u);
  }

  /// The least / most effective modes (cells 1 and N).
  [[nodiscard]] double least_effective() const { return modes_[0]; }
  [[nodiscard]] double most_effective() const { return modes_[m_ - 1u]; }

  /// The physical modes this array views, least effective first.
  [[nodiscard]] std::span<const double> available_modes() const { return {modes_, m_}; }
  [[nodiscard]] PolicyParam policy() const { return PolicyParam{pp_}; }

  /// Re-tunes this array to a new policy (user re-tunes Pp at runtime).
  /// Copies of it keep their own Pp.
  void set_policy(PolicyParam pp);

  /// Eq. (1) by itself, exposed for tests and documentation.
  [[nodiscard]] static std::size_t eq1_np(PolicyParam pp, std::size_t n);

 private:
  const double* modes_;
  std::uint16_t m_;
  std::uint16_t n_;
  std::uint16_t np_;
  std::uint16_t pp_;
};

}  // namespace thermctl::core
