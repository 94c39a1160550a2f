#include "core/control_array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <ostream>
#include <span>
#include <thread>
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
  ThermalControlArray arr{duty_1_to(100), 100, PolicyParam{50}};
  EXPECT_DOUBLE_EQ(arr.least_effective(), 1.0);
  EXPECT_DOUBLE_EQ(arr.most_effective(), 100.0);
  EXPECT_DOUBLE_EQ(arr.mode(0), 1.0);
  EXPECT_DOUBLE_EQ(arr.mode(99), 100.0);
}

TEST(ControlArray, CellsFromNpOnwardAreMostEffective) {
  ThermalControlArray arr{duty_1_to(100), 100, PolicyParam{25}};
  EXPECT_EQ(arr.np(), 25u);
  for (std::size_t i = arr.np(); i <= arr.size(); ++i) {
    EXPECT_DOUBLE_EQ(arr.mode(i - 1), 100.0) << "cell " << i;
  }
}

TEST(ControlArray, SmallPpIsMoreAggressiveAtSameIndex) {
  ThermalControlArray aggressive{duty_1_to(100), 100, PolicyParam{25}};
  ThermalControlArray weak{duty_1_to(100), 100, PolicyParam{75}};
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
  ThermalControlArray arr{duty_1_to(75), 100, PolicyParam{50}};
  EXPECT_DOUBLE_EQ(arr.mode(0), 1.0);
  // Ramp cell i (1-based) holds modes[(i-1)*75/49].
  EXPECT_DOUBLE_EQ(arr.mode(24), duty_1_to(75)[24 * 75 / 49]);
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
  ThermalControlArray arr{duty_1_to(100), 100, PolicyParam{75}};
  const double before = arr.mode(40);
  arr.set_policy(PolicyParam{25});
  EXPECT_EQ(arr.np(), 25u);
  EXPECT_GT(arr.mode(40), before);
}

TEST(ControlArray, SetPolicyMatchesFreshConstruction) {
  // A runtime re-tune must land on exactly the fill a fresh array built
  // with the new Pp would have — no history leaks through set_policy.
  for (int from : {1, 25, 75, 100}) {
    for (int to : {1, 33, 66, 100}) {
      ThermalControlArray retuned{duty_1_to(75), 100, PolicyParam{from}};
      retuned.set_policy(PolicyParam{to});
      const ThermalControlArray fresh{duty_1_to(75), 100, PolicyParam{to}};
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
  ThermalControlArray arr{duty_1_to(100), 100, PolicyParam{1}};
  EXPECT_EQ(arr.np(), 1u);
  EXPECT_DOUBLE_EQ(arr.mode(50), 100.0);  // everything past cell 1 is max
  arr.set_policy(PolicyParam{100});
  EXPECT_EQ(arr.np(), 100u);
  EXPECT_DOUBLE_EQ(arr.mode(50), 51.0);  // identity-ish ramp
  arr.set_policy(PolicyParam{1});
  EXPECT_EQ(arr.np(), 1u);
  EXPECT_DOUBLE_EQ(arr.mode(50), 100.0);
}

TEST(ControlArray, IndexOfNearest) {
  ThermalControlArray arr{duty_1_to(100), 100, PolicyParam{100}};  // identity-ish ramp
  EXPECT_EQ(arr.index_of_nearest(1.0), 0u);
  const std::size_t idx = arr.index_of_nearest(50.4);
  EXPECT_NEAR(arr.mode(idx), 50.0, 1.0);
}

TEST(ControlArrayDeath, RejectsEmptyModes) {
  EXPECT_DEATH(ThermalControlArray({}, 10, PolicyParam{50}), "mode");
}

TEST(ControlArrayDeath, RejectsTinyArray) {
  EXPECT_DEATH(ThermalControlArray({1.0}, 1, PolicyParam{50}), "two cells");
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
  ThermalControlArray arr{duty_1_to(c.physical_modes), c.n, PolicyParam{c.pp}};

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
      for (int pp = 1; pp <= 100; ++pp) {
        ThermalControlArray arr{duty_1_to(m), n, PolicyParam{pp}};
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

// ---- Shared fills: one table per (modes, N, Pp) per process ----

/// Modes no other test uses, so intern counts and sharing are this test's own.
std::vector<double> odd_modes(int m, double offset) {
  std::vector<double> modes;
  for (int k = 0; k < m; ++k) {
    modes.push_back(offset + 1.37 * k);
  }
  return modes;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(ControlArrayIntern, EqualKeysShareOneFill) {
  const ThermalControlArray a{duty_1_to(100), 100, PolicyParam{50}};
  const ThermalControlArray b{duty_1_to(100), 100, PolicyParam{50}};
  EXPECT_EQ(a.cells().data(), b.cells().data());
  EXPECT_EQ(a.available_modes().data(), b.available_modes().data());

  // Any difference in Pp, N, the modes, or even one mode's bits is a
  // different fill.
  const ThermalControlArray other_pp{duty_1_to(100), 100, PolicyParam{51}};
  const ThermalControlArray other_n{duty_1_to(100), 99, PolicyParam{50}};
  const ThermalControlArray other_modes{duty_1_to(99), 100, PolicyParam{50}};
  std::vector<double> signed_zero = duty_1_to(100);
  signed_zero.insert(signed_zero.begin(), -0.0);
  std::vector<double> plain_zero = duty_1_to(100);
  plain_zero.insert(plain_zero.begin(), 0.0);
  const ThermalControlArray neg{signed_zero, 100, PolicyParam{50}};
  const ThermalControlArray pos{plain_zero, 100, PolicyParam{50}};
  for (const ThermalControlArray* x : {&other_pp, &other_n, &other_modes}) {
    EXPECT_NE(x->cells().data(), a.cells().data());
  }
  EXPECT_NE(neg.cells().data(), pos.cells().data());
}

TEST(ControlArrayIntern, SetPolicyLeavesSharersUnchanged) {
  ThermalControlArray retuned{duty_1_to(75), 100, PolicyParam{60}};
  const ThermalControlArray sharer{duty_1_to(75), 100, PolicyParam{60}};
  ASSERT_EQ(retuned.cells().data(), sharer.cells().data());
  const std::vector<double> before(sharer.cells().begin(), sharer.cells().end());

  retuned.set_policy(PolicyParam{20});
  EXPECT_TRUE(same_bits(sharer.cells(), before));
  EXPECT_EQ(sharer.policy().value, 60);
  EXPECT_EQ(sharer.np(), ThermalControlArray::eq1_np(PolicyParam{60}, 100));

  const ThermalControlArray fresh{duty_1_to(75), 100, PolicyParam{20}};
  EXPECT_EQ(retuned.cells().data(), fresh.cells().data());
  EXPECT_TRUE(same_bits(retuned.cells(), fresh.cells()));
  EXPECT_EQ(retuned.np(), fresh.np());
  EXPECT_EQ(retuned.policy().value, 20);
}

TEST(ControlArrayIntern, EveryFillMatchesReferenceBitForBit) {
  // The reference fill is Eq. (1) written out in integer arithmetic: n_p =
  // (Pp−1)(N−1)/99 + 1, ramp cell i (0-based) = modes[i·M/(n_p−1)], plateau
  // = g_N, and cell 1 pinned to g_1.
  for (const std::size_t n : {std::size_t{2}, std::size_t{16}, std::size_t{100}}) {
    for (const int m : {1, 5, 100}) {
      const std::vector<double> modes = odd_modes(m, 0.25);
      for (int pp = 1; pp <= 100; ++pp) {
        const std::size_t np = static_cast<std::size_t>(pp - 1) * (n - 1) / 99 + 1;
        std::vector<double> expected(n, modes.back());
        for (std::size_t i = 0; i + 1 < np; ++i) {
          expected[i] = modes[i * static_cast<std::size_t>(m) / (np - 1)];
        }
        expected.front() = modes.front();

        const ThermalControlArray arr{modes, n, PolicyParam{pp}};
        ASSERT_EQ(arr.np(), np) << "N=" << n << " M=" << m << " Pp=" << pp;
        ASSERT_TRUE(same_bits(arr.cells(), expected)) << "N=" << n << " M=" << m << " Pp=" << pp;
        ASSERT_TRUE(same_bits(arr.available_modes(), modes));
        verify::InvariantReport report;
        verify::check_control_array(arr, report);
        ASSERT_TRUE(report.ok())
            << "N=" << n << " M=" << m << " Pp=" << pp << "\n" << report.to_string();
      }
    }
  }
}

TEST(ControlArrayIntern, FillDiesWithItsLastArray) {
  const std::size_t before = ThermalControlArray::interned_fills();
  const std::vector<double> modes = odd_modes(7, 3.5);
  {
    const ThermalControlArray a{modes, 16, PolicyParam{40}};
    EXPECT_EQ(ThermalControlArray::interned_fills(), before + 1);
    {
      const ThermalControlArray b{modes, 16, PolicyParam{40}};
      EXPECT_EQ(ThermalControlArray::interned_fills(), before + 1);
    }
    EXPECT_EQ(ThermalControlArray::interned_fills(), before + 1);  // `a` still holds it
  }
  EXPECT_EQ(ThermalControlArray::interned_fills(), before);

  // A fresh lookup builds the fill again, with the same values.
  const ThermalControlArray again{modes, 16, PolicyParam{40}};
  EXPECT_EQ(ThermalControlArray::interned_fills(), before + 1);
  const ThermalControlArray reference{modes, 16, PolicyParam{40}};
  EXPECT_TRUE(same_bits(again.cells(), reference.cells()));

  // Re-tuning away from a fill releases it too.
  ThermalControlArray retuned{modes, 16, PolicyParam{90}};
  EXPECT_EQ(ThermalControlArray::interned_fills(), before + 2);
  retuned.set_policy(PolicyParam{40});
  EXPECT_EQ(ThermalControlArray::interned_fills(), before + 1);
}

TEST(ControlArrayIntern, ConcurrentBuildersShareOneFill) {
  // Eight threads build the same arrays at once, and churn short-lived ones
  // through the die-and-rebuild path, then compare what they kept.
  constexpr int kThreads = 8;
  const std::vector<double> modes = odd_modes(100, 7.75);
  std::vector<std::vector<ThermalControlArray>> kept(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int round = 0; round < 200; ++round) {
        const ThermalControlArray churn{modes, 16, PolicyParam{1 + round % 100}};
        ThermalControlArray retuned{modes, 100, PolicyParam{1 + (round + t) % 100}};
        retuned.set_policy(PolicyParam{50});
      }
      for (const int pp : {25, 50, 75}) {
        kept[t].emplace_back(modes, 100, PolicyParam{pp});
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t k = 0; k < 3; ++k) {
    const ThermalControlArray& first = kept[0][k];
    const ThermalControlArray reference{modes, 100, first.policy()};
    EXPECT_TRUE(same_bits(first.cells(), reference.cells()));
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(kept[t][k].cells().data(), first.cells().data()) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace thermctl::core
