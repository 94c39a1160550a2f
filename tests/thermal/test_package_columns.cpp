// PackageColumns row independence, bit for bit.
//
// The group advances B packages in structure-of-arrays storage with one
// unit-stride loop. Its contract: a row's trajectory depends only on the
// calls made on that row. Every test here drives row b of a B-row group and
// a one-row group with the same calls and requires bitwise agreement —
// across odd row counts (SIMD tails), misaligned step ranges (shard
// bounds), heterogeneous substep plans, and steps after a settle, which
// plan afresh like any other step. The bits themselves are pinned by
// tests/golden/ and tests/cluster/test_package_pin.cpp.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "thermal/package_model.hpp"

namespace thermctl::thermal {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))
#define ASSERT_BITS_EQ(a, b) ASSERT_EQ(bits(a), bits(b))

/// `rows` default packages from a warm start (die 40 °C, heatsink 35 °C)
/// with a 0.5 K/W convection.
PackageColumns warm_group(std::size_t rows) {
  PackageColumns g{rows, PackageParams{}};
  std::fill(g.t_die.begin(), g.t_die.end(), 40.0);
  std::fill(g.t_hs.begin(), g.t_hs.end(), 35.0);
  std::fill(g.g_conv.begin(), g.g_conv.end(), 1.0 / 0.5);
  return g;
}

/// `count` one-row groups: the per-row references.
std::vector<PackageColumns> groups_of_one(std::size_t count) {
  std::vector<PackageColumns> solo;
  solo.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    solo.push_back(warm_group(1));
  }
  return solo;
}

/// Row `b` of `g` agrees bitwise with row `s` of `solo` in every
/// temperature.
::testing::AssertionResult row_matches(const PackageColumns& g, std::size_t b,
                                       const PackageColumns& solo, std::size_t s = 0) {
  const char* const names[] = {"die", "heatsink", "ambient"};
  const double got[] = {g.t_die[b], g.t_hs[b], g.t_amb[b]};
  const double want[] = {solo.t_die[s], solo.t_hs[s], solo.t_amb[s]};
  for (std::size_t k = 0; k < 3; ++k) {
    if (bits(got[k]) != bits(want[k])) {
      return ::testing::AssertionFailure()
             << "row " << b << " " << names[k] << ": " << got[k] << " vs " << want[k];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PackageColumns, FreshRowsStartAtAmbientInStillAir) {
  const PackageParams p;
  PackageColumns g{4, p};
  EXPECT_EQ(g.size(), 4u);
  EXPECT_BITS_EQ(g.g_die_hs, 1.0 / p.r_die_heatsink.value());
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_BITS_EQ(g.t_die[b], p.ambient.value());
    EXPECT_BITS_EQ(g.t_hs[b], p.ambient.value());
    EXPECT_BITS_EQ(g.t_amb[b], p.ambient.value());
    EXPECT_BITS_EQ(g.p_die[b], 0.0);
    EXPECT_BITS_EQ(g.g_conv[b],
                   1.0 / ConvectionModel{p.convection}.still_air_resistance().value());
    EXPECT_EQ(g.set[b], 0);
  }
}

TEST(PackageColumns, TrajectoriesBitExactAgainstGroupsOfOne) {
  // Five rows driven with five *different* power/convection schedules,
  // mirrored onto five one-row groups; every temperature must agree bitwise
  // at every step. Schedules include repeated conductances and dt changes
  // (plan recompute).
  constexpr std::size_t kRows = 5;
  PackageColumns g = warm_group(kRows);
  auto solo = groups_of_one(kRows);

  Rng rng{20260808};
  const double dts[] = {0.05, 0.05, 0.05, 0.25};  // mostly steady, some jumps
  for (int step = 0; step < 6000; ++step) {
    for (std::size_t b = 0; b < kRows; ++b) {
      const double power = 5.0 + 90.0 * rng.uniform();
      const double g_conv = 1.0 / (0.15 + 0.05 * static_cast<double>(rng.below(10)));
      g.p_die[b] = power;
      g.g_conv[b] = g_conv;
      solo[b].p_die[0] = power;
      solo[b].g_conv[0] = g_conv;
    }
    const Seconds dt{dts[rng.below(4)]};
    g.step_range(dt, 0, kRows);
    for (std::size_t b = 0; b < kRows; ++b) {
      solo[b].step_range(dt, 0, 1);
      ASSERT_TRUE(row_matches(g, b, solo[b])) << "step " << step;
    }
  }
}

TEST(PackageColumns, HeterogeneousSubstepPlansSplitTheRangeNotTheArithmetic) {
  // Give rows wildly different convections so their smaller time constants
  // — hence substep counts at dt = 2 s — differ: the tight convections
  // leave the heatsink bounding the substep, each at its own tau, while the
  // loose ones (rows 4..6) share the die's and so run as one range. A step
  // over all of them must still match the groups of one bitwise: runs
  // split, arithmetic doesn't.
  constexpr std::size_t kRows = 7;
  PackageColumns g = warm_group(kRows);
  auto solo = groups_of_one(kRows);
  std::set<std::uint64_t> taus;
  for (std::size_t b = 0; b < kRows; ++b) {
    const double g_conv = 1.0 / (0.004 * static_cast<double>(b + 1));  // 0.004 .. 0.028 K/W
    g.g_conv[b] = g_conv;
    solo[b].g_conv[0] = g_conv;
    g.p_die[b] = 60.0;
    solo[b].p_die[0] = 60.0;
    taus.insert(bits(solo[b].min_time_constant(0)));
  }
  ASSERT_EQ(taus.size(), 5u);  // the premise: four heatsink taus + the die's
  for (int step = 0; step < 50; ++step) {
    g.step_range(Seconds{2.0}, 0, kRows);
    for (std::size_t b = 0; b < kRows; ++b) {
      solo[b].step_range(Seconds{2.0}, 0, 1);
      ASSERT_TRUE(row_matches(g, b, solo[b])) << "step " << step;
    }
  }
}

TEST(PackageColumns, StepRangeAdvancesOnlyTheRange) {
  PackageColumns g = warm_group(3);
  std::fill(g.p_die.begin(), g.p_die.end(), 80.0);
  const double before = g.t_die[2];
  g.step_range(Seconds{0.05}, 0, 2);
  EXPECT_BITS_EQ(g.t_die[2], before);
  EXPECT_NE(bits(g.t_die[0]), bits(before));
}

TEST(PackageColumns, StepAndSettleMatchGroupOfOne) {
  // A row runs a step-settle sequence exactly as a group of one does,
  // whatever its neighbour does.
  PackageColumns g = warm_group(2);
  PackageColumns solo = warm_group(1);
  auto drive = [&](double power, double r_conv) {
    g.p_die[1] = power;
    g.g_conv[1] = 1.0 / r_conv;
    solo.p_die[0] = power;
    solo.g_conv[0] = 1.0 / r_conv;
  };
  // The neighbour row takes a different load throughout.
  g.p_die[0] = 90.0;
  g.g_conv[0] = 1.0 / 0.02;

  drive(40.0, 0.5);
  g.step_range(Seconds{1.0}, 0, 2);
  solo.step_range(Seconds{1.0}, 0, 1);
  ASSERT_TRUE(row_matches(g, 1, solo)) << "after the first step";

  // Shrink the time constant until the heatsink bounds the substep: the
  // next step plans afresh in both.
  drive(40.0, 0.005);
  g.step_range(Seconds{1.0}, 0, 2);
  solo.step_range(Seconds{1.0}, 0, 1);
  ASSERT_TRUE(row_matches(g, 1, solo)) << "after the step that follows a convection change";

  drive(25.0, 0.3);
  g.settle_range(1, 2);
  solo.settle_range(0, 1);
  ASSERT_TRUE(row_matches(g, 1, solo)) << "after settle";
}

// A vectorized build of the substep processes rows in SIMD lanes; counts
// not divisible by the vector width leave scalar tail iterations, and step_range can
// start/end mid-register. Every such shape must stay bit-exact against
// groups of one. Widths up to 8 doubles (AVX-512) are covered by counts
// 1..13.
class PackageColumnsTailSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackageColumnsTailSweep, OddRowCountsStayBitExact) {
  const std::size_t rows = GetParam();
  PackageColumns g = warm_group(rows);
  auto solo = groups_of_one(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    // Distinct per-row powers so a lane mixup cannot cancel out.
    const double power = 20.0 + 7.0 * static_cast<double>(b);
    g.p_die[b] = power;
    solo[b].p_die[0] = power;
  }
  for (int step = 0; step < 400; ++step) {
    g.step_range(Seconds{0.05}, 0, rows);
    for (std::size_t b = 0; b < rows; ++b) {
      solo[b].step_range(Seconds{0.05}, 0, 1);
      ASSERT_TRUE(row_matches(g, b, solo[b])) << "of " << rows << ", step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TailCounts, PackageColumnsTailSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 13u));

TEST(PackageColumns, StepRangeMisalignedBoundsStayBitExact) {
  // Shard boundaries land mid-register: step [0,3), [3,10) and [10,13)
  // separately (as the sharded engine would) and require bitwise agreement
  // with 13 groups of one stepped with the same dt.
  constexpr std::size_t kRows = 13;
  PackageColumns g = warm_group(kRows);
  auto solo = groups_of_one(kRows);
  for (std::size_t b = 0; b < kRows; ++b) {
    const double power = 15.0 + 5.0 * static_cast<double>(b);
    g.p_die[b] = power;
    solo[b].p_die[0] = power;
  }
  const std::size_t bounds[] = {0, 3, 10, 13};
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s + 1 < 4; ++s) {
      g.step_range(Seconds{0.05}, bounds[s], bounds[s + 1]);
    }
    for (std::size_t b = 0; b < kRows; ++b) {
      solo[b].step_range(Seconds{0.05}, 0, 1);
      ASSERT_TRUE(row_matches(g, b, solo[b])) << "step " << step;
    }
  }
}

TEST(PackageColumns, MemoryFootprintIsFiveStateCellsAndTheAirflowMemo) {
  // Per row: die, heatsink and ambient temperatures, die power and
  // convection (five doubles), plus the applied airflow and its flag. The
  // constants live once in the group.
  constexpr std::size_t kRowBytes = 5 * sizeof(double) + sizeof(double) + sizeof(std::uint8_t);
  static_assert(kRowBytes == 49);
  for (const std::size_t rows : {1u, 16u, 1024u}) {
    EXPECT_EQ(PackageColumns(rows, PackageParams{}).memory_bytes(), rows * kRowBytes);
  }
}

// ---- batched settle ----
// settle_range marches many rows at once. Its contract: every row ends
// bitwise where settling that row alone (settle_range(b, b + 1)) leaves
// it, and the steps after it plan afresh.

/// Row b's load: power and convection vary with b, so neighbouring rows
/// march with different steps and converge at different iterations. The
/// tighter convections make the heatsink, not the die, bound the step; the
/// looser ones leave the die bound, so some neighbours share a step.
double settle_power(std::size_t b) { return 5.0 + 7.0 * static_cast<double>(b % 13); }
double settle_conv(std::size_t b) { return 1.0 / (0.004 + 0.004 * static_cast<double>(b % 7)); }

PackageColumns loaded_group(std::size_t rows) {
  PackageColumns g = warm_group(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    g.p_die[b] = settle_power(b);
    g.g_conv[b] = settle_conv(b);
  }
  return g;
}

void expect_rows_bitwise_equal(const PackageColumns& a, const PackageColumns& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t row = 0; row < a.size(); ++row) {
    ASSERT_TRUE(row_matches(a, row, b, row));
  }
}

void settle_each(PackageColumns& g, std::size_t lo, std::size_t hi, int cap = 200000) {
  for (std::size_t b = lo; b < hi; ++b) {
    g.settle_range(b, b + 1, cap);
  }
}

/// Iterations row b of `g` marches before settle stops it, counted one
/// capped iteration at a time (every call takes the same step).
int settle_iterations(PackageColumns g, std::size_t b) {
  for (int it = 1; it <= 200000; ++it) {
    const double die = g.t_die[b];
    const double hs = g.t_hs[b];
    g.settle_range(b, b + 1, 1);
    const double move = std::max(std::abs(g.t_die[b] - die), std::abs(g.t_hs[b] - hs));
    if (move < 1e-7) {
      return it;
    }
  }
  return -1;
}

TEST(PackageColumnsSettle, DifferentStepsAndStopsMatchPerRowSettle) {
  constexpr std::size_t kRows = 9;
  // The premise: the rows march with different steps and stop at different
  // iterations, so runs split and the active set shrinks.
  std::set<std::uint64_t> steps;
  std::set<int> stops;
  const PackageColumns probe = loaded_group(kRows);
  for (std::size_t b = 0; b < kRows; ++b) {
    steps.insert(bits(probe.min_time_constant(b)));
    stops.insert(settle_iterations(probe, b));
  }
  EXPECT_GT(steps.size(), 1u);
  EXPECT_GT(stops.size(), 1u);
  EXPECT_EQ(stops.count(-1), 0u) << "a row never converged";

  PackageColumns together = loaded_group(kRows);
  PackageColumns alone = loaded_group(kRows);
  together.settle_range(0, kRows);
  settle_each(alone, 0, kRows);
  expect_rows_bitwise_equal(together, alone);
}

TEST(PackageColumnsSettle, RangesStartingAndEndingMidBlockMatchPerRowSettle) {
  // 600 rows span several 256-row march blocks; each range leaves a partial
  // last block, and the rows outside it must not move.
  constexpr std::size_t kRows = 600;
  const std::pair<std::size_t, std::size_t> ranges[] = {{3, 517}, {255, 257}, {511, 600},
                                                        {0, 1}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE("range [" + std::to_string(lo) + ", " + std::to_string(hi) + ")");
    PackageColumns together = loaded_group(kRows);
    PackageColumns alone = loaded_group(kRows);
    together.settle_range(lo, hi);
    settle_each(alone, lo, hi);
    expect_rows_bitwise_equal(together, alone);
  }
}

TEST(PackageColumnsSettle, TinyIterationCapMatchesPerRowSettle) {
  constexpr std::size_t kRows = 11;
  for (const int cap : {0, 1, 2, 5}) {
    SCOPED_TRACE("max_iterations=" + std::to_string(cap));
    PackageColumns together = loaded_group(kRows);
    PackageColumns alone = loaded_group(kRows);
    together.settle_range(0, kRows, cap);
    settle_each(alone, 0, kRows, cap);
    expect_rows_bitwise_equal(together, alone);
    // Stopped by the cap, not by convergence: the next iteration still moves.
    if (cap > 0) {
      const double die = together.t_die[0];
      together.settle_range(0, 1, 1);
      EXPECT_NE(bits(together.t_die[0]), bits(die));
    }
  }
}

TEST(PackageColumnsSettle, StepsAfterASettlePlanAfresh) {
  // Step every row once, shrink its time constant, then settle: the steps
  // after the settle plan from the new time constant, exactly as a group
  // that never stepped before would. Batched settle, per-row settle,
  // settled groups of one and fresh groups of one holding the settled state
  // must agree.
  constexpr std::size_t kRows = 6;
  PackageColumns together = loaded_group(kRows);
  PackageColumns alone = loaded_group(kRows);
  auto solo = groups_of_one(kRows);
  for (std::size_t b = 0; b < kRows; ++b) {
    solo[b].p_die[0] = settle_power(b);
    solo[b].g_conv[0] = settle_conv(b);
  }
  const Seconds dt{1.0};
  together.step_range(dt, 0, kRows);
  alone.step_range(dt, 0, kRows);
  for (PackageColumns& s : solo) {
    s.step_range(dt, 0, 1);
  }
  // Tight enough that the heatsink, not the die, bounds the substep: the
  // plan at dt takes more substeps than the first step's.
  auto tight = [](std::size_t b) { return 1.0 / (0.005 + 0.002 * static_cast<double>(b % 3)); };
  {
    PackageColumns probe = loaded_group(kRows);
    const double primed_tau = probe.min_time_constant(0);
    probe.g_conv[0] = tight(0);
    EXPECT_NE(std::ceil(dt.value() * 8.0 / primed_tau),
              std::ceil(dt.value() * 8.0 / probe.min_time_constant(0)));
  }
  for (std::size_t b = 0; b < kRows; ++b) {
    together.g_conv[b] = tight(b);
    alone.g_conv[b] = tight(b);
    solo[b].g_conv[0] = tight(b);
  }
  together.settle_range(0, kRows);
  settle_each(alone, 0, kRows);
  for (PackageColumns& s : solo) {
    s.settle_range(0, 1);
  }
  auto fresh = groups_of_one(kRows);
  for (std::size_t b = 0; b < kRows; ++b) {
    fresh[b].p_die[0] = settle_power(b);
    fresh[b].g_conv[0] = tight(b);
    fresh[b].t_die[0] = together.t_die[b];
    fresh[b].t_hs[0] = together.t_hs[b];
  }
  for (int step = 0; step < 3; ++step) {
    together.step_range(dt, 0, kRows);
    alone.step_range(dt, 0, kRows);
    for (std::size_t b = 0; b < kRows; ++b) {
      solo[b].step_range(dt, 0, 1);
      fresh[b].step_range(dt, 0, 1);
    }
  }
  expect_rows_bitwise_equal(together, alone);
  for (std::size_t b = 0; b < kRows; ++b) {
    EXPECT_TRUE(row_matches(together, b, solo[b]));
    EXPECT_TRUE(row_matches(together, b, fresh[b]));
  }
}

// ---- settling duplicate rows ----
// settle_range marches one row per run of bitwise-identical rows and copies
// its end state to the rest of the run. Whatever the grouping, every row
// must still end where settling it alone leaves it.

/// Cold start, far from equilibrium: early iterations take large moves, so
/// a one-ulp difference in an input survives rounding.
constexpr double kColdDie = 23.9;
constexpr double kColdHeatsink = 27.1;

/// Loads row b with package `kind` from the cold start: 'A' and 'B' are
/// loose convections (the die bounds the step), 'T' a tight one (the
/// heatsink bounds it).
void load_kind(PackageColumns& g, std::size_t b, char kind) {
  g.t_die[b] = kColdDie;
  g.t_hs[b] = kColdHeatsink;
  switch (kind) {
    case 'A':
      g.p_die[b] = 90.7;
      g.g_conv[b] = 1.0 / 0.3;
      break;
    case 'B':
      g.p_die[b] = 65.0;
      g.g_conv[b] = 1.0 / 0.2;
      break;
    default:
      g.p_die[b] = 90.7;
      g.g_conv[b] = 1.0 / 0.008;
      break;
  }
}

PackageColumns pattern_group(const std::string& pattern) {
  PackageColumns g{pattern.size(), PackageParams{}};
  for (std::size_t b = 0; b < pattern.size(); ++b) {
    load_kind(g, b, pattern[b]);
  }
  return g;
}

/// Settles rows [lo, hi) of `pattern` together and one at a time, and
/// requires bitwise agreement after the settle and after three steps.
void expect_pattern_settles_like_per_row(const std::string& pattern, std::size_t lo,
                                         std::size_t hi) {
  PackageColumns together = pattern_group(pattern);
  PackageColumns alone = pattern_group(pattern);
  together.settle_range(lo, hi);
  settle_each(alone, lo, hi);
  expect_rows_bitwise_equal(together, alone);
  for (int step = 0; step < 3; ++step) {
    together.step_range(Seconds{0.05}, 0, pattern.size());
    alone.step_range(Seconds{0.05}, 0, pattern.size());
  }
  expect_rows_bitwise_equal(together, alone);
}

TEST(PackageColumnsSettle, IdenticalRowsMatchPerRowSettle) {
  // 600 identical rows: one representative marches for all of them, across
  // what would be three 256-row blocks.
  const std::string pattern(600, 'A');
  expect_pattern_settles_like_per_row(pattern, 0, pattern.size());
  // A sub-range: the rows outside it keep their unsettled state.
  expect_pattern_settles_like_per_row(pattern, 3, 517);
}

TEST(PackageColumnsSettle, InterleavedRunsMatchPerRowSettle) {
  const std::string long_runs = std::string(300, 'A') + "B" + std::string(300, 'A');
  for (const std::string& pattern : {std::string{"AABABB"}, std::string{"ABABAB"},
                                     std::string{"BAAAAB"}, std::string{"TTATTB"}, long_runs}) {
    SCOPED_TRACE(pattern.size() > 20 ? "300 A, B, 300 A" : pattern);
    expect_pattern_settles_like_per_row(pattern, 0, pattern.size());
  }
}

/// Settles K K X K K, where X is a `kind` row that `nudge` moved one ulp
/// away in a single input, together and one row at a time, under every
/// iteration cap from 1 to 64 and in a full settle, and requires bitwise
/// agreement. Under at least one cap X settled alone ends elsewhere than
/// its neighbours, so taking their end state would fail: rounding can
/// absorb a one-ulp nudge for a while, and a full settle can wash a nudged
/// temperature out.
void expect_nudged_row_marches_alone(char kind,
                                     const std::function<void(PackageColumns&)>& nudge) {
  const std::string pattern(5, kind);
  int traces = 0;
  std::vector<int> caps(64);
  std::iota(caps.begin(), caps.end(), 1);
  caps.push_back(200000);
  for (const int cap : caps) {
    SCOPED_TRACE("max_iterations=" + std::to_string(cap));
    PackageColumns together = pattern_group(pattern);
    PackageColumns alone = pattern_group(pattern);
    nudge(together);
    nudge(alone);
    together.settle_range(0, pattern.size(), cap);
    settle_each(alone, 0, pattern.size(), cap);
    expect_rows_bitwise_equal(together, alone);
    if (!row_matches(alone, 2, alone, 1)) {
      ++traces;
    }
  }
  EXPECT_GT(traces, 0) << "the nudge leaves no trace";
}

TEST(PackageColumnsSettle, RowOneUlpApartMarchesOnItsOwn) {
  auto up = [](double& cell) { cell = std::nextafter(cell, 2.0 * cell + 1.0); };
  const std::pair<std::string, std::function<void(PackageColumns&)>> cases[] = {
      {"die temperature", [&](PackageColumns& g) { up(g.t_die[2]); }},
      {"heatsink temperature", [&](PackageColumns& g) { up(g.t_hs[2]); }},
      {"ambient temperature", [&](PackageColumns& g) { up(g.t_amb[2]); }},
      {"die power", [&](PackageColumns& g) { up(g.p_die[2]); }},
      {"convection conductance",
       [&](PackageColumns& g) {
         // The die bounds an 'A' row's step, so only the cell moves.
         const double step = g.min_time_constant(2);
         up(g.g_conv[2]);
         EXPECT_EQ(bits(g.min_time_constant(2)), bits(step));
       }},
  };
  for (const auto& [name, nudge] : cases) {
    SCOPED_TRACE(name);
    expect_nudged_row_marches_alone('A', nudge);
  }
}

TEST(PackageColumnsSettle, RowWhoseStepIsOneUlpApartMarchesOnItsOwn) {
  // X's step is one ulp shorter: its convection is the nearest above T's
  // that moves the heatsink-bound time constant.
  PackageColumns probe = pattern_group("T");
  const double tau = probe.min_time_constant(0);
  while (probe.min_time_constant(0) == tau) {
    probe.g_conv[0] = std::nextafter(probe.g_conv[0], 1e9);
  }
  const double g_conv = probe.g_conv[0];
  ASSERT_EQ(bits(tau) - bits(probe.min_time_constant(0)), 1u);
  expect_nudged_row_marches_alone('T', [&](PackageColumns& g) { g.g_conv[2] = g_conv; });
}

TEST(PackageColumnsSettle, DuplicateRowsStepAfterASettleAsOne) {
  // StepsAfterASettlePlanAfresh with every row identical: each duplicate
  // takes its run's first row's settled state, and the steps after the
  // settle plan afresh in every row alike.
  const std::string pattern = "AAAAAA";
  PackageColumns together = pattern_group(pattern);
  PackageColumns alone = pattern_group(pattern);
  PackageColumns solo = pattern_group("A");
  const Seconds dt{1.0};
  const double tight = 1.0 / 0.005;
  {
    PackageColumns probe = pattern_group("A");
    const double primed_tau = probe.min_time_constant(0);
    probe.g_conv[0] = tight;
    EXPECT_NE(std::ceil(dt.value() * 8.0 / primed_tau),
              std::ceil(dt.value() * 8.0 / probe.min_time_constant(0)));
  }
  for (PackageColumns* g : {&together, &alone, &solo}) {
    g->step_range(dt, 0, g->size());
    std::fill(g->g_conv.begin(), g->g_conv.end(), tight);
  }
  together.settle_range(0, pattern.size());
  settle_each(alone, 0, pattern.size());
  solo.settle_range(0, 1);
  for (int step = 0; step < 3; ++step) {
    for (PackageColumns* g : {&together, &alone, &solo}) {
      g->step_range(dt, 0, g->size());
    }
  }
  expect_rows_bitwise_equal(together, alone);
  for (std::size_t b = 0; b < pattern.size(); ++b) {
    EXPECT_TRUE(row_matches(together, b, solo));
  }
}

}  // namespace
}  // namespace thermctl::thermal
