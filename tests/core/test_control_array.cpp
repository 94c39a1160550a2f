#include "core/control_array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "verify/invariants.hpp"

namespace thermctl::core {
namespace {

std::vector<double> duty_1_to(int max) {
  std::vector<double> modes;
  for (int d = 1; d <= max; ++d) {
    modes.push_back(static_cast<double>(d));
  }
  return modes;
}

TEST(Eq1, BoundaryValues) {
  // Pp = Pmin gives n_p = 1; Pp = Pmax gives n_p = N.
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{1}, 100), 1u);
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{100}, 100), 100u);
}

TEST(Eq1, PaperExampleValues) {
  // N = 100, [Pmin, Pmax] = [1, 100]: n_p = floor((Pp-1)*99/99) + 1 = Pp.
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{25}, 100), 25u);
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{50}, 100), 50u);
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{75}, 100), 75u);
}

TEST(Eq1, SmallerArray) {
  // N = 16: n_p = floor((Pp-1)*15/99) + 1.
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{50}, 16), 8u);
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{25}, 16), 4u);
  EXPECT_EQ(ThermalControlArray::eq1_np(PolicyParam{75}, 16), 12u);
}

TEST(Eq1, MonotoneInPp) {
  std::size_t prev = 0;
  for (int pp = 1; pp <= 100; ++pp) {
    const std::size_t np = ThermalControlArray::eq1_np(PolicyParam{pp}, 100);
    EXPECT_GE(np, prev);
    prev = np;
  }
}

TEST(ControlArray, BoundaryCellsAlwaysExtremes) {
  const std::vector<double> duties = duty_1_to(100);
  ThermalControlArray arr{duties, 100, PolicyParam{50}};
  EXPECT_DOUBLE_EQ(arr.least_effective(), 1.0);
  EXPECT_DOUBLE_EQ(arr.most_effective(), 100.0);
  EXPECT_DOUBLE_EQ(arr.mode(0), 1.0);
  EXPECT_DOUBLE_EQ(arr.mode(99), 100.0);
}

TEST(ControlArray, CellsFromNpOnwardAreMostEffective) {
  const std::vector<double> duties = duty_1_to(100);
  ThermalControlArray arr{duties, 100, PolicyParam{25}};
  EXPECT_EQ(arr.np(), 25u);
  for (std::size_t i = arr.np(); i <= arr.size(); ++i) {
    EXPECT_DOUBLE_EQ(arr.mode(i - 1), 100.0) << "cell " << i;
  }
}

TEST(ControlArray, SmallPpIsMoreAggressiveAtSameIndex) {
  const std::vector<double> duties = duty_1_to(100);
  ThermalControlArray aggressive{duties, 100, PolicyParam{25}};
  ThermalControlArray weak{duties, 100, PolicyParam{75}};
  // At every index the aggressive fill commands at least as strong a mode.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_GE(aggressive.mode(i), weak.mode(i)) << "index " << i;
  }
  // And strictly stronger somewhere in the middle.
  EXPECT_GT(aggressive.mode(40), weak.mode(40));
}

TEST(ControlArray, RampIsEvenlyExtractedSubset) {
  // Pp = 50, N = 100, M = 75 physical modes (max duty 75%): the 49 ramp
  // cells must sample the 75 modes evenly, starting at the least effective.
  const std::vector<double> duties = duty_1_to(75);
  ThermalControlArray arr{duties, 100, PolicyParam{50}};
  EXPECT_DOUBLE_EQ(arr.mode(0), 1.0);
  // Ramp cell i (1-based) holds modes[(i-1)*75/49].
  EXPECT_DOUBLE_EQ(arr.mode(24), duties[24 * 75 / 49]);
  // Last ramp cell is near but below the top.
  EXPECT_LT(arr.mode(arr.np() - 2), 75.0);
  EXPECT_GT(arr.mode(arr.np() - 2), 60.0);
}

TEST(ControlArray, DuplicatesWhenNExceedsPhysicalModes) {
  // 5 frequencies into a 16-cell array: duplicates are expected and legal
  // (§3.2.2 explicitly allows them).
  const std::vector<double> freqs{2.4, 2.2, 2.0, 1.8, 1.0};
  ThermalControlArray arr{freqs, 16, PolicyParam{75}};
  int count_24 = 0;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (arr.mode(i) == 2.4) {
      ++count_24;
    }
  }
  EXPECT_GT(count_24, 1);
}

TEST(ControlArray, DvfsOrderingDescendingFrequency) {
  const std::vector<double> freqs{2.4, 2.2, 2.0, 1.8, 1.0};
  ThermalControlArray arr{freqs, 16, PolicyParam{50}};
  EXPECT_DOUBLE_EQ(arr.least_effective(), 2.4);
  EXPECT_DOUBLE_EQ(arr.most_effective(), 1.0);
  // Non-ascending in frequency = non-descending in effectiveness.
  for (std::size_t i = 1; i < arr.size(); ++i) {
    EXPECT_LE(arr.mode(i), arr.mode(i - 1) + 1e-12);
  }
}

TEST(ControlArray, SetPolicyRefills) {
  const std::vector<double> duties = duty_1_to(100);
  ThermalControlArray arr{duties, 100, PolicyParam{75}};
  const double before = arr.mode(40);
  arr.set_policy(PolicyParam{25});
  EXPECT_EQ(arr.np(), 25u);
  EXPECT_GT(arr.mode(40), before);
}

TEST(ControlArray, SetPolicyMatchesFreshConstruction) {
  // A runtime re-tune must land on exactly the fill a fresh array built
  // with the new Pp would have — no history leaks through set_policy.
  const std::vector<double> duties = duty_1_to(75);
  for (int from : {1, 25, 75, 100}) {
    for (int to : {1, 33, 66, 100}) {
      ThermalControlArray retuned{duties, 100, PolicyParam{from}};
      retuned.set_policy(PolicyParam{to});
      const ThermalControlArray fresh{duties, 100, PolicyParam{to}};
      ASSERT_EQ(retuned.np(), fresh.np()) << from << "->" << to;
      for (std::size_t i = 0; i < retuned.size(); ++i) {
        ASSERT_DOUBLE_EQ(retuned.mode(i), fresh.mode(i))
            << from << "->" << to << " cell " << i;
      }
    }
  }
}

TEST(ControlArray, SetPolicyKeepsNonDescendingInvariant) {
  // Walk the whole Pp range over a duplicate-heavy geometry (N > physical
  // modes) and check the effectiveness ordering survives every refill.
  const std::vector<double> freqs{2.4, 2.2, 2.0, 1.8, 1.0};
  ThermalControlArray arr{freqs, 16, PolicyParam{50}};
  for (int pp = 1; pp <= 100; ++pp) {
    arr.set_policy(PolicyParam{pp});
    EXPECT_EQ(arr.policy().value, pp);
    for (std::size_t i = 1; i < arr.size(); ++i) {
      ASSERT_LE(arr.mode(i), arr.mode(i - 1) + 1e-12) << "Pp=" << pp << " i=" << i;
    }
    EXPECT_DOUBLE_EQ(arr.least_effective(), 2.4);
    EXPECT_DOUBLE_EQ(arr.most_effective(), 1.0);
  }
}

TEST(ControlArray, SetPolicyBoundaryFlip) {
  // Pp 1 ↔ 100 are Eq. (1)'s extremes: n_p snaps between 1 and N, and the
  // interior cells flip between all-strongest and the gentle ramp.
  const std::vector<double> duties = duty_1_to(100);
  ThermalControlArray arr{duties, 100, PolicyParam{1}};
  EXPECT_EQ(arr.np(), 1u);
  EXPECT_DOUBLE_EQ(arr.mode(50), 100.0);  // everything past cell 1 is max
  arr.set_policy(PolicyParam{100});
  EXPECT_EQ(arr.np(), 100u);
  EXPECT_DOUBLE_EQ(arr.mode(50), 51.0);  // identity-ish ramp
  arr.set_policy(PolicyParam{1});
  EXPECT_EQ(arr.np(), 1u);
  EXPECT_DOUBLE_EQ(arr.mode(50), 100.0);
}

TEST(ControlArray, IsATriviallyCopyableValueOfAtMostSixteenBytes) {
  // A view of the owner's modes plus N, n_p and Pp: no heap, no refcount.
  EXPECT_TRUE(std::is_trivially_copyable_v<ThermalControlArray>);
  EXPECT_LE(sizeof(ThermalControlArray), 16u);
}

TEST(ControlArray, RefusesATemporaryModeList) {
  // The array views its modes, so a list that dies with the full
  // expression must not build one.
  EXPECT_FALSE((std::is_constructible_v<ThermalControlArray, std::vector<double>&&,
                                        std::size_t, PolicyParam>));
  EXPECT_TRUE((std::is_constructible_v<ThermalControlArray, const std::vector<double>&,
                                       std::size_t, PolicyParam>));
}

TEST(ControlArrayDeath, RejectsEmptyModes) {
  const std::vector<double> none;
  EXPECT_DEATH(ThermalControlArray(none, 10, PolicyParam{50}), "mode");
}

TEST(ControlArrayDeath, RejectsTinyArray) {
  const std::vector<double> one{1.0};
  EXPECT_DEATH(ThermalControlArray(one, 1, PolicyParam{50}), "two cells");
}

TEST(PolicyParamDeath, RejectsOutOfRange) {
  EXPECT_DEATH(PolicyParam{0}, "Pp");
  EXPECT_DEATH(PolicyParam{101}, "Pp");
}

// ---- Property sweep over the full policy range and several geometries ----

struct FillCase {
  int pp;
  std::size_t n;
  int physical_modes;
};

/// Names a case `pp50_n100_m75`. Without a printer gtest prints the raw
/// bytes of the struct, padding included, and CMake's test discovery names
/// each ctest id after what gtest prints, so the ids changed from build to
/// build.
void PrintTo(const FillCase& c, std::ostream* os) {
  *os << "pp" << c.pp << "_n" << c.n << "_m" << c.physical_modes;
}

class ControlArrayFillSweep : public ::testing::TestWithParam<FillCase> {};

TEST_P(ControlArrayFillSweep, InvariantsHoldForAllFills) {
  const FillCase c = GetParam();
  const std::vector<double> duties = duty_1_to(c.physical_modes);
  ThermalControlArray arr{duties, c.n, PolicyParam{c.pp}};

  // 1. n_p in [1, N].
  EXPECT_GE(arr.np(), 1u);
  EXPECT_LE(arr.np(), c.n);

  // 2. Non-descending effectiveness (ascending duty).
  for (std::size_t i = 1; i < arr.size(); ++i) {
    EXPECT_LE(arr.mode(i - 1), arr.mode(i)) << "Pp=" << c.pp << " i=" << i;
  }

  // 3. First cell least effective, last cell most effective.
  EXPECT_DOUBLE_EQ(arr.mode(0), 1.0);
  EXPECT_DOUBLE_EQ(arr.mode(arr.size() - 1), static_cast<double>(c.physical_modes));

  // 4. Every cell holds a physically available mode.
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const double m = arr.mode(i);
    EXPECT_GE(m, 1.0);
    EXPECT_LE(m, static_cast<double>(c.physical_modes));
    EXPECT_DOUBLE_EQ(m, std::round(m));  // integer duty modes stay integer
  }

  // 5. Cells [n_p, N] all hold the most effective mode — except cell 1,
  // which §3.2.2 pins to the least effective mode even when n_p == 1.
  for (std::size_t i = std::max<std::size_t>(arr.np(), 2); i <= arr.size(); ++i) {
    EXPECT_DOUBLE_EQ(arr.mode(i - 1), static_cast<double>(c.physical_modes));
  }
}

std::vector<FillCase> fill_cases() {
  std::vector<FillCase> cases;
  for (int pp : {1, 2, 10, 25, 33, 50, 66, 75, 90, 99, 100}) {
    for (const auto& [n, m] : std::vector<std::pair<std::size_t, int>>{
             {100, 100}, {100, 75}, {100, 25}, {16, 5}, {50, 5}, {8, 100}, {2, 2}}) {
      cases.push_back(FillCase{pp, n, m});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PolicyGeometryGrid, ControlArrayFillSweep,
                         ::testing::ValuesIn(fill_cases()));

// ---- Exhaustive sweep: every Pp against awkward geometries ----
//
// The parameterized grid above samples Pp; this covers the complete policy
// range against array bounds and physical-mode counts chosen to hit the
// nasty divisions in the ramp extraction (primes, N < M, N > M, M == 1),
// checked by the verification layer's structural invariants — the same
// code the runtime invariant checker arms on live experiments.
TEST(ControlArrayExhaustive, EveryPpAcrossGeometriesAndRetunes) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{61},
                              std::size_t{100}}) {
    for (const int m : {1, 2, 7, 61}) {
      const std::vector<double> duties = duty_1_to(m);
      for (int pp = 1; pp <= 100; ++pp) {
        ThermalControlArray arr{duties, n, PolicyParam{pp}};
        verify::InvariantReport report;
        verify::check_control_array(arr, report);
        ASSERT_TRUE(report.ok())
            << "N=" << n << " M=" << m << " Pp=" << pp << "\n" << report.to_string();
        // Runtime re-tune to the mirrored policy: the refill must satisfy
        // the same invariants (and Eq. (1) for the *new* Pp).
        arr.set_policy(PolicyParam{101 - pp});
        verify::check_control_array(arr, report);
        ASSERT_TRUE(report.ok()) << "N=" << n << " M=" << m << " Pp=" << pp
                                 << " retuned to " << 101 - pp << "\n" << report.to_string();
      }
    }
  }
}

// ---- Eq. (1) as arithmetic: every cell against the table it replaced ----

/// Modes whose bits no index arithmetic could produce by accident.
std::vector<double> odd_modes(int m, double offset) {
  std::vector<double> modes;
  for (int k = 0; k < m; ++k) {
    modes.push_back(offset + 1.37 * k);
  }
  return modes;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Eq. (1)'s fill built as a table, independently of the array's closed
/// form: plateau cells [n_p, N] (1-based) take g_N, ramp cells [1, n_p−1]
/// take modes[(i−1)·M/(n_p−1)], and cell 1 is pinned to g_1.
std::vector<std::size_t> reference_picks(std::size_t m, std::size_t n, std::size_t np) {
  std::vector<std::size_t> picks(n, m - 1);
  for (std::size_t i = 1; i < np; ++i) {
    picks[i - 1] = (i - 1) * m / (np - 1);
  }
  picks.front() = 0;
  return picks;
}

TEST(ControlArray, EveryCellMatchesReferenceBitForBit) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{16}, std::size_t{100},
                              std::size_t{130}}) {
    for (const int m : {1, 5, 100, 256}) {
      const std::vector<double> modes = odd_modes(m, 0.25);
      for (int pp = 1; pp <= 100; ++pp) {
        // n_p = (Pp−1)(N−1)/99 + 1 in integer arithmetic.
        const std::size_t np = static_cast<std::size_t>(pp - 1) * (n - 1) / 99 + 1;
        const std::vector<std::size_t> picks =
            reference_picks(static_cast<std::size_t>(m), n, np);

        const ThermalControlArray arr{modes, n, PolicyParam{pp}};
        ASSERT_EQ(arr.np(), np) << "N=" << n << " M=" << m << " Pp=" << pp;
        ASSERT_EQ(arr.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(arr.mode_index(i), picks[i])
              << "N=" << n << " M=" << m << " Pp=" << pp << " cell " << i;
          ASSERT_TRUE(same_bits(arr.mode(i), modes[picks[i]]))
              << "N=" << n << " M=" << m << " Pp=" << pp << " cell " << i;
        }
        ASSERT_EQ(arr.available_modes().data(), modes.data());
        ASSERT_EQ(arr.available_modes().size(), modes.size());
        verify::InvariantReport report;
        verify::check_control_array(arr, report);
        ASSERT_TRUE(report.ok())
            << "N=" << n << " M=" << m << " Pp=" << pp << "\n" << report.to_string();
      }
    }
  }
}

TEST(ControlArray, RetuningACopyLeavesTheOriginalUnchanged) {
  const std::vector<double> modes = odd_modes(75, 0.5);
  const ThermalControlArray original{modes, 100, PolicyParam{60}};
  ThermalControlArray retuned = original;
  retuned.set_policy(PolicyParam{20});

  const ThermalControlArray fresh60{modes, 100, PolicyParam{60}};
  const ThermalControlArray fresh20{modes, 100, PolicyParam{20}};
  EXPECT_EQ(original.policy().value, 60);
  EXPECT_EQ(original.np(), ThermalControlArray::eq1_np(PolicyParam{60}, 100));
  EXPECT_EQ(retuned.policy().value, 20);
  EXPECT_EQ(retuned.np(), fresh20.np());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(same_bits(original.mode(i), fresh60.mode(i))) << "cell " << i;
    EXPECT_TRUE(same_bits(retuned.mode(i), fresh20.mode(i))) << "cell " << i;
  }
  // Both still view the one mode list.
  EXPECT_EQ(original.available_modes().data(), modes.data());
  EXPECT_EQ(retuned.available_modes().data(), modes.data());
}

}  // namespace
}  // namespace thermctl::core
