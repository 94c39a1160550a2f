// RcBatch column independence, bit for bit.
//
// The batch advances B structurally identical networks in
// structure-of-arrays storage with one vectorized loop. Its contract: a
// column's trajectory depends only on the calls made on that column. Every
// test here drives column b of a B-column batch and a one-column batch with
// the same calls and requires bitwise agreement — across odd instance
// counts (SIMD tails), misaligned step ranges (shard bounds), heterogeneous
// substep plans, and steps after settle() and min_time_constant() reads,
// which plan afresh like any other step. The bits themselves are pinned by
// tests/golden/.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "thermal/package_model.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))
#define ASSERT_BITS_EQ(a, b) ASSERT_EQ(bits(a), bits(b))

// The die--heatsink--ambient chain every cluster node simulates, built the
// same way PackageModel wires it but from a warm start.
struct PackageRig {
  RcNetwork net;
  NodeId die;
  NodeId hs;
  NodeId amb;
  EdgeId die_hs;
  EdgeId conv;
};

std::unique_ptr<PackageRig> make_package_rig() {
  const PackageParams p;
  auto w = std::make_unique<PackageRig>();
  w->die = w->net.add_node("die", p.c_die, Celsius{40.0});
  w->hs = w->net.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  w->amb = w->net.add_fixed_node("ambient", p.ambient);
  w->die_hs = w->net.add_edge(w->die, w->hs, p.r_die_heatsink);
  w->conv = w->net.add_edge(w->hs, w->amb, KelvinPerWatt{0.5});
  return w;
}

/// `count` one-column batches of `w`'s network: the per-column references.
std::vector<RcBatch> batches_of_one(const PackageRig& w, std::size_t count) {
  std::vector<RcBatch> solo;
  solo.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    solo.emplace_back(w.net, 1);
  }
  return solo;
}

/// Column `b` of `batch` agrees bitwise with column 0 of `solo`, at every
/// node of the package.
::testing::AssertionResult column_matches(const RcBatch& batch, std::size_t b,
                                          const RcBatch& solo, const PackageRig& w) {
  for (const NodeId n : {w.die, w.hs, w.amb}) {
    const double got = batch.temperature(b, n).value();
    const double want = solo.temperature(0, n).value();
    if (bits(got) != bits(want)) {
      return ::testing::AssertionFailure()
             << "column " << b << " node " << n.index << ": " << got << " vs " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RcBatch, MirrorsTemplateStateAtConstruction) {
  auto tmpl = make_package_rig();
  RcBatch batch{tmpl->net, 4};

  EXPECT_EQ(batch.instance_count(), 4u);
  EXPECT_EQ(batch.rc_node_count(), 3u);
  EXPECT_EQ(batch.edge_count(), 2u);
  EXPECT_EQ(batch.node_name(tmpl->die), "die");
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                   tmpl->net.temperature(tmpl->die).value());
    EXPECT_BITS_EQ(batch.temperature(b, tmpl->amb).value(),
                   tmpl->net.temperature(tmpl->amb).value());
    EXPECT_BITS_EQ(batch.power(b, tmpl->die).value(), 0.0);
    EXPECT_BITS_EQ(batch.resistance(b, tmpl->conv).value(),
                   1.0 / tmpl->net.edge_conductance(tmpl->conv));
  }
}

TEST(RcBatch, TrajectoriesBitExactAgainstBatchesOfOne) {
  // Five columns driven with five *different* power/convection schedules,
  // mirrored onto five one-column batches; every temperature must agree
  // bitwise at every step. Schedules include repeated resistances (hitting
  // the set_resistance early-out) and dt changes (plan recompute).
  constexpr std::size_t kInstances = 5;
  auto tmpl = make_package_rig();
  RcBatch batch{tmpl->net, kInstances};
  auto solo = batches_of_one(*tmpl, kInstances);

  Rng rng{20260808};
  const double dts[] = {0.05, 0.05, 0.05, 0.25};  // mostly steady, some jumps
  for (int step = 0; step < 6000; ++step) {
    for (std::size_t b = 0; b < kInstances; ++b) {
      const double power = 5.0 + 90.0 * rng.uniform();
      // Quantized so the same value repeats across steps and the
      // early-out/dirty-bit path is exercised, not just the recompute path.
      const double r_conv = 0.15 + 0.05 * static_cast<double>(rng.below(10));
      batch.set_power(b, tmpl->die, Watts{power});
      batch.set_resistance(b, tmpl->conv, KelvinPerWatt{r_conv});
      solo[b].set_power(0, tmpl->die, Watts{power});
      solo[b].set_resistance(0, tmpl->conv, KelvinPerWatt{r_conv});
    }
    const Seconds dt{dts[rng.below(4)]};
    batch.step_all(dt);
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b].step_all(dt);
      ASSERT_TRUE(column_matches(batch, b, solo[b], *tmpl)) << "step " << step;
    }
  }
}

TEST(RcBatch, HeterogeneousSubstepPlansSplitTheRangeNotTheArithmetic) {
  // Give columns wildly different convection resistances so their smallest
  // time constants — hence substep counts at dt = 2 s — differ: the tight
  // convections leave the heatsink bounding the substep, each at its own
  // tau, while the loose ones (columns 4..6) share the die's and so run as
  // one range. step_all must still match the batches of one bitwise: runs
  // split, arithmetic doesn't.
  constexpr std::size_t kInstances = 7;
  auto tmpl = make_package_rig();
  RcBatch batch{tmpl->net, kInstances};
  auto solo = batches_of_one(*tmpl, kInstances);
  std::set<std::uint64_t> taus;
  for (std::size_t b = 0; b < kInstances; ++b) {
    const double r_conv = 0.004 * static_cast<double>(b + 1);  // 0.004 .. 0.028
    batch.set_resistance(b, tmpl->conv, KelvinPerWatt{r_conv});
    solo[b].set_resistance(0, tmpl->conv, KelvinPerWatt{r_conv});
    batch.set_power(b, tmpl->die, Watts{60.0});
    solo[b].set_power(0, tmpl->die, Watts{60.0});
    taus.insert(bits(solo[b].min_time_constant(0).value()));
  }
  ASSERT_EQ(taus.size(), 5u);  // the premise: four heatsink taus + the die's
  for (int step = 0; step < 50; ++step) {
    batch.step_all(Seconds{2.0});
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b].step_all(Seconds{2.0});
      ASSERT_TRUE(column_matches(batch, b, solo[b], *tmpl)) << "step " << step;
    }
    ASSERT_BITS_EQ(batch.min_time_constant(2).value(), solo[2].min_time_constant(0).value());
  }
}

TEST(RcBatch, StepRangeAdvancesOnlyTheRange) {
  auto tmpl = make_package_rig();
  RcBatch batch{tmpl->net, 3};
  for (std::size_t b = 0; b < 3; ++b) {
    batch.set_power(b, tmpl->die, Watts{80.0});
  }
  const double before = batch.temperature(2, tmpl->die).value();
  batch.step_range(Seconds{0.05}, 0, 2);
  EXPECT_BITS_EQ(batch.temperature(2, tmpl->die).value(), before);
  EXPECT_NE(bits(batch.temperature(0, tmpl->die).value()), bits(before));
}

TEST(RcBatch, StepAfterAMinTimeConstantReadPlansAfresh) {
  // A step plans its substeps from the column's current time constant, so
  // reading min_time_constant() (settle does) changes nothing: two
  // identical columns, one read apart, step the same bits — and those of a
  // plan taken after the conductance change.
  auto w = make_package_rig();
  RcBatch batch{w->net, 2};
  const Seconds dt{1.0};
  for (std::size_t b = 0; b < 2; ++b) {
    batch.set_power(b, w->die, Watts{40.0});
  }
  batch.step_all(dt);  // plans a step bounded by the die's tau
  const double primed_tau = batch.min_time_constant(0).value();
  for (std::size_t b = 0; b < 2; ++b) {
    // Tight enough that the heatsink, not the die, bounds the substep: the
    // plan at dt takes more substeps than the primed one.
    batch.set_resistance(b, w->conv, KelvinPerWatt{0.005});
  }
  ASSERT_NE(std::ceil(dt.value() * 8.0 / primed_tau),
            std::ceil(dt.value() * 8.0 / batch.min_time_constant(0).value()));
  batch.step_all(dt);  // column 0 was read after the change, column 1 not
  EXPECT_BITS_EQ(batch.temperature(0, w->die).value(), batch.temperature(1, w->die).value());
  EXPECT_BITS_EQ(batch.temperature(0, w->hs).value(), batch.temperature(1, w->hs).value());
}

TEST(RcBatch, ReadSettleAndStepMatchBatchOfOne) {
  // A column runs the read-step-settle sequence exactly as a batch of one
  // does, whatever its neighbour does — and a read on one side only moves
  // neither.
  auto w = make_package_rig();
  RcBatch batch{w->net, 2};
  RcBatch solo{w->net, 1};

  auto drive = [&](double power, double r_conv) {
    batch.set_power(1, w->die, Watts{power});
    batch.set_resistance(1, w->conv, KelvinPerWatt{r_conv});
    solo.set_power(0, w->die, Watts{power});
    solo.set_resistance(0, w->conv, KelvinPerWatt{r_conv});
  };
  // The neighbour column takes a different load throughout.
  batch.set_power(0, w->die, Watts{90.0});
  batch.set_resistance(0, w->conv, KelvinPerWatt{0.02});

  drive(40.0, 0.5);
  batch.step_all(Seconds{1.0});
  solo.step_all(Seconds{1.0});
  ASSERT_TRUE(column_matches(batch, 1, solo, *w)) << "after the first step";

  // Shrink the time constant until the heatsink bounds the substep, and
  // read it on the batch only: the next step plans afresh in both.
  drive(40.0, 0.005);
  ASSERT_GT(batch.min_time_constant(1).value(), 0.0);
  batch.step_all(Seconds{1.0});
  solo.step_all(Seconds{1.0});
  ASSERT_TRUE(column_matches(batch, 1, solo, *w)) << "after the step that follows a read";

  // And settle() itself must agree bitwise.
  drive(25.0, 0.3);
  batch.settle(1);
  solo.settle(0);
  ASSERT_TRUE(column_matches(batch, 1, solo, *w)) << "after settle";
}

// The vectorized substep sweeps process instances in SIMD lanes; counts not
// divisible by the vector width leave scalar tail iterations, and step_range
// can start/end mid-register. Every such shape must stay bit-exact against
// batches of one. Widths up to 8 doubles (AVX-512) are covered by counts
// 1..13.
class RcBatchTailSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RcBatchTailSweep, OddInstanceCountsStayBitExact) {
  const std::size_t instances = GetParam();
  auto tmpl = make_package_rig();
  RcBatch batch{tmpl->net, instances};
  auto solo = batches_of_one(*tmpl, instances);
  for (std::size_t b = 0; b < instances; ++b) {
    // Distinct per-instance powers so a lane mixup cannot cancel out.
    const double power = 20.0 + 7.0 * static_cast<double>(b);
    batch.set_power(b, tmpl->die, Watts{power});
    solo[b].set_power(0, tmpl->die, Watts{power});
  }
  for (int step = 0; step < 400; ++step) {
    batch.step_all(Seconds{0.05});
    for (std::size_t b = 0; b < instances; ++b) {
      solo[b].step_all(Seconds{0.05});
      ASSERT_TRUE(column_matches(batch, b, solo[b], *tmpl))
          << "of " << instances << ", step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TailCounts, RcBatchTailSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 13u));

TEST(RcBatch, StepRangeMisalignedBoundsStayBitExact) {
  // Shard boundaries land mid-register: step [0,3), [3,10) and [10,13)
  // separately (as the sharded engine would) and require bitwise agreement
  // with 13 batches of one stepped with the same dt.
  constexpr std::size_t kInstances = 13;
  auto tmpl = make_package_rig();
  RcBatch batch{tmpl->net, kInstances};
  auto solo = batches_of_one(*tmpl, kInstances);
  for (std::size_t b = 0; b < kInstances; ++b) {
    const double power = 15.0 + 5.0 * static_cast<double>(b);
    batch.set_power(b, tmpl->die, Watts{power});
    solo[b].set_power(0, tmpl->die, Watts{power});
  }
  const std::size_t bounds[] = {0, 3, 10, 13};
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s + 1 < 4; ++s) {
      batch.step_range(Seconds{0.05}, bounds[s], bounds[s + 1]);
    }
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b].step_all(Seconds{0.05});
      ASSERT_TRUE(column_matches(batch, b, solo[b], *tmpl)) << "step " << step;
    }
  }
}

// ---- batched settle ----
// settle_range marches many columns at once. Its contract: every column ends
// bitwise where settling that column alone (settle(b), which is
// settle_range(b, b + 1)) leaves it, and the steps after it plan afresh.

/// Column b's load: power and convection vary with b, so neighbouring columns
/// march with different steps and converge at different iterations. The
/// tighter convections make the heatsink, not the die, bound the step; the
/// looser ones leave the die bound, so some neighbours share a step.
Watts settle_power(std::size_t b) { return Watts{5.0 + 7.0 * static_cast<double>(b % 13)}; }
KelvinPerWatt settle_conv(std::size_t b) {
  return KelvinPerWatt{0.004 + 0.004 * static_cast<double>(b % 7)};
}

RcBatch loaded_batch(const PackageRig& w, std::size_t instances) {
  RcBatch batch{w.net, instances};
  for (std::size_t b = 0; b < instances; ++b) {
    batch.set_power(b, w.die, settle_power(b));
    batch.set_resistance(b, w.conv, settle_conv(b));
  }
  return batch;
}

void expect_columns_bitwise_equal(const RcBatch& a, const RcBatch& b, const PackageRig& w) {
  ASSERT_EQ(a.instance_count(), b.instance_count());
  for (std::size_t col = 0; col < a.instance_count(); ++col) {
    for (const NodeId n : {w.die, w.hs, w.amb}) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.temperature(col, n).value()),
                std::bit_cast<std::uint64_t>(b.temperature(col, n).value()))
          << "column " << col << " node " << n.index;
    }
  }
}

/// Iterations column b of `batch` marches before settle stops it, counted
/// one capped iteration at a time (every call takes the same step).
int settle_iterations(RcBatch batch, const PackageRig& w, std::size_t b) {
  for (int it = 1; it <= 200000; ++it) {
    const double die = batch.temperature(b, w.die).value();
    const double hs = batch.temperature(b, w.hs).value();
    batch.settle_range(b, b + 1, 1);
    const double move = std::max(std::abs(batch.temperature(b, w.die).value() - die),
                                 std::abs(batch.temperature(b, w.hs).value() - hs));
    if (move < 1e-7) {
      return it;
    }
  }
  return -1;
}

TEST(RcBatchSettle, DifferentStepsAndStopsMatchPerColumnSettle) {
  constexpr std::size_t kInstances = 9;
  auto w = make_package_rig();
  // The premise: the columns march with different steps and stop at
  // different iterations, so runs split and the active set shrinks.
  std::set<std::uint64_t> steps;
  std::set<int> stops;
  for (std::size_t b = 0; b < kInstances; ++b) {
    RcBatch probe = loaded_batch(*w, kInstances);
    steps.insert(std::bit_cast<std::uint64_t>(probe.min_time_constant(b).value()));
    stops.insert(settle_iterations(loaded_batch(*w, kInstances), *w, b));
  }
  EXPECT_GT(steps.size(), 1u);
  EXPECT_GT(stops.size(), 1u);
  EXPECT_EQ(stops.count(-1), 0u) << "a column never converged";

  RcBatch together = loaded_batch(*w, kInstances);
  RcBatch alone = loaded_batch(*w, kInstances);
  together.settle_range(0, kInstances);
  for (std::size_t b = 0; b < kInstances; ++b) {
    alone.settle(b);
  }
  expect_columns_bitwise_equal(together, alone, *w);
}

TEST(RcBatchSettle, RangesStartingAndEndingMidBlockMatchPerColumnSettle) {
  // 600 columns span several 256-column march blocks; each range leaves a
  // partial last block, and the columns outside it must not move.
  constexpr std::size_t kInstances = 600;
  auto w = make_package_rig();
  const std::pair<std::size_t, std::size_t> ranges[] = {{3, 517}, {255, 257}, {511, 600},
                                                        {0, 1}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE("range [" + std::to_string(lo) + ", " + std::to_string(hi) + ")");
    RcBatch together = loaded_batch(*w, kInstances);
    RcBatch alone = loaded_batch(*w, kInstances);
    together.settle_range(lo, hi);
    for (std::size_t b = lo; b < hi; ++b) {
      alone.settle(b);
    }
    expect_columns_bitwise_equal(together, alone, *w);
  }
}

TEST(RcBatchSettle, TinyIterationCapMatchesPerColumnSettle) {
  constexpr std::size_t kInstances = 11;
  auto w = make_package_rig();
  for (const int cap : {0, 1, 2, 5}) {
    SCOPED_TRACE("max_iterations=" + std::to_string(cap));
    RcBatch together = loaded_batch(*w, kInstances);
    RcBatch alone = loaded_batch(*w, kInstances);
    together.settle_range(0, kInstances, cap);
    for (std::size_t b = 0; b < kInstances; ++b) {
      alone.settle_range(b, b + 1, cap);
    }
    expect_columns_bitwise_equal(together, alone, *w);
    // Stopped by the cap, not by convergence: the next iteration still moves.
    if (cap > 0) {
      const double die = together.temperature(0, w->die).value();
      together.settle_range(0, 1, 1);
      EXPECT_NE(std::bit_cast<std::uint64_t>(together.temperature(0, w->die).value()),
                std::bit_cast<std::uint64_t>(die));
    }
  }
}

TEST(RcBatchSettle, StepsAfterASettlePlanAfresh) {
  // Step every column once, shrink its time constant, then settle: the
  // steps after the settle plan from the new time constant, exactly as a
  // batch that never stepped before would. Batched settle, per-column
  // settle, settled batches of one and fresh batches of one holding the
  // settled state must agree.
  constexpr std::size_t kInstances = 6;
  auto w = make_package_rig();
  RcBatch together = loaded_batch(*w, kInstances);
  RcBatch alone = loaded_batch(*w, kInstances);
  auto solo = batches_of_one(*w, kInstances);
  for (std::size_t b = 0; b < kInstances; ++b) {
    solo[b].set_power(0, w->die, settle_power(b));
    solo[b].set_resistance(0, w->conv, settle_conv(b));
  }
  const Seconds dt{1.0};
  together.step_all(dt);
  alone.step_all(dt);
  for (RcBatch& s : solo) {
    s.step_all(dt);
  }
  // Tight enough that the heatsink, not the die, bounds the substep: the
  // plan at dt takes more substeps than the first step's.
  auto tight = [](std::size_t b) {
    return KelvinPerWatt{0.005 + 0.002 * static_cast<double>(b % 3)};
  };
  {
    RcBatch probe = loaded_batch(*w, kInstances);
    const double primed_tau = probe.min_time_constant(0).value();
    probe.set_resistance(0, w->conv, tight(0));
    EXPECT_NE(std::ceil(dt.value() * 8.0 / primed_tau),
              std::ceil(dt.value() * 8.0 / probe.min_time_constant(0).value()));
  }
  for (std::size_t b = 0; b < kInstances; ++b) {
    together.set_resistance(b, w->conv, tight(b));
    alone.set_resistance(b, w->conv, tight(b));
    solo[b].set_resistance(0, w->conv, tight(b));
  }
  together.settle_range(0, kInstances);
  for (std::size_t b = 0; b < kInstances; ++b) {
    alone.settle(b);
    solo[b].settle(0);
  }
  auto fresh = batches_of_one(*w, kInstances);
  for (std::size_t b = 0; b < kInstances; ++b) {
    fresh[b].set_power(0, w->die, settle_power(b));
    fresh[b].set_resistance(0, w->conv, tight(b));
    fresh[b].set_temperature(0, w->die, together.temperature(b, w->die));
    fresh[b].set_temperature(0, w->hs, together.temperature(b, w->hs));
  }
  for (int step = 0; step < 3; ++step) {
    together.step_all(dt);
    alone.step_all(dt);
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b].step_all(dt);
      fresh[b].step_all(dt);
    }
  }
  expect_columns_bitwise_equal(together, alone, *w);
  for (std::size_t b = 0; b < kInstances; ++b) {
    EXPECT_TRUE(column_matches(together, b, solo[b], *w));
    EXPECT_TRUE(column_matches(together, b, fresh[b], *w));
  }
}

// ---- settling duplicate columns ----
// settle_range marches one column per run of bitwise-identical columns and
// copies its end state to the rest of the run. Whatever the grouping, every
// column must still end where settling it alone leaves it.

/// Cold start, far from equilibrium: early iterations take large moves, so
/// a one-ulp difference in an input survives rounding.
constexpr double kColdDie = 23.9;
constexpr double kColdHeatsink = 27.1;

/// Loads column b with package `kind` from the cold start: 'A' and 'B' are
/// loose convections (the die bounds the step), 'T' a tight one (the
/// heatsink bounds it).
void load_kind(RcBatch& batch, const PackageRig& w, std::size_t b, char kind) {
  batch.set_temperature(b, w.die, Celsius{kColdDie});
  batch.set_temperature(b, w.hs, Celsius{kColdHeatsink});
  switch (kind) {
    case 'A':
      batch.set_power(b, w.die, Watts{90.7});
      batch.set_resistance(b, w.conv, KelvinPerWatt{0.3});
      break;
    case 'B':
      batch.set_power(b, w.die, Watts{65.0});
      batch.set_resistance(b, w.conv, KelvinPerWatt{0.2});
      break;
    default:
      batch.set_power(b, w.die, Watts{90.7});
      batch.set_resistance(b, w.conv, KelvinPerWatt{0.008});
      break;
  }
}

RcBatch pattern_batch(const PackageRig& w, const std::string& pattern) {
  RcBatch batch{w.net, pattern.size()};
  for (std::size_t b = 0; b < pattern.size(); ++b) {
    load_kind(batch, w, b, pattern[b]);
  }
  return batch;
}

/// Settles columns [lo, hi) of `pattern` together and one at a time, and
/// requires bitwise agreement after the settle and after three steps.
void expect_pattern_settles_like_per_column(const PackageRig& w, const std::string& pattern,
                                            std::size_t lo, std::size_t hi) {
  RcBatch together = pattern_batch(w, pattern);
  RcBatch alone = pattern_batch(w, pattern);
  together.settle_range(lo, hi);
  for (std::size_t b = lo; b < hi; ++b) {
    alone.settle(b);
  }
  expect_columns_bitwise_equal(together, alone, w);
  for (int step = 0; step < 3; ++step) {
    together.step_all(Seconds{0.05});
    alone.step_all(Seconds{0.05});
  }
  expect_columns_bitwise_equal(together, alone, w);
}

TEST(RcBatchSettle, IdenticalColumnsMatchPerColumnSettle) {
  // 600 identical columns: one representative marches for all of them,
  // across what would be three 256-column blocks.
  auto w = make_package_rig();
  const std::string pattern(600, 'A');
  expect_pattern_settles_like_per_column(*w, pattern, 0, pattern.size());
  // A sub-range: the columns outside it keep their unsettled state.
  expect_pattern_settles_like_per_column(*w, pattern, 3, 517);
}

TEST(RcBatchSettle, InterleavedRunsMatchPerColumnSettle) {
  auto w = make_package_rig();
  const std::string long_runs = std::string(300, 'A') + "B" + std::string(300, 'A');
  for (const std::string& pattern : {std::string{"AABABB"}, std::string{"ABABAB"},
                                     std::string{"BAAAAB"}, std::string{"TTATTB"}, long_runs}) {
    SCOPED_TRACE(pattern.size() > 20 ? "300 A, B, 300 A" : pattern);
    expect_pattern_settles_like_per_column(*w, pattern, 0, pattern.size());
  }
}

/// The resistance nearest `r` whose conductance is one ulp above 1 / r.
KelvinPerWatt one_ulp_more_conductance(KelvinPerWatt r) {
  const double g = std::nextafter(1.0 / r.value(), 2.0 / r.value());
  double r2 = 1.0 / g;
  for (int i = 0; i < 8 && 1.0 / r2 != g; ++i) {
    r2 = std::nextafter(r2, 1.0 / g > r2 ? 1.0 : 0.0);
  }
  EXPECT_EQ(bits(1.0 / r2), bits(g));
  return KelvinPerWatt{r2};
}

/// Settles K K X K K, where X is a `kind` column that `nudge` moved one ulp
/// away in a single input, together and one column at a time, under every
/// iteration cap from 1 to 64 and in a full settle, and requires bitwise
/// agreement. Under at least one cap X settled alone ends elsewhere than
/// its neighbours, so taking their end state would fail: rounding can
/// absorb a one-ulp nudge for a while, and a full settle can wash a nudged
/// temperature out.
void expect_nudged_column_marches_alone(const PackageRig& w, char kind,
                                        const std::function<void(RcBatch&)>& nudge) {
  const std::string pattern(5, kind);
  int traces = 0;
  std::vector<int> caps(64);
  std::iota(caps.begin(), caps.end(), 1);
  caps.push_back(200000);
  for (const int cap : caps) {
    SCOPED_TRACE("max_iterations=" + std::to_string(cap));
    RcBatch together = pattern_batch(w, pattern);
    RcBatch alone = pattern_batch(w, pattern);
    nudge(together);
    nudge(alone);
    together.settle_range(0, pattern.size(), cap);
    for (std::size_t b = 0; b < pattern.size(); ++b) {
      alone.settle_range(b, b + 1, cap);
    }
    expect_columns_bitwise_equal(together, alone, w);
    if (!column_matches(alone, 2, alone, w)) {
      ++traces;
    }
  }
  EXPECT_GT(traces, 0) << "the nudge leaves no trace";
}

TEST(RcBatchSettle, ColumnOneUlpApartMarchesOnItsOwn) {
  auto w = make_package_rig();
  const double amb0 = w->net.temperature(w->amb).value();
  const std::pair<std::string, std::function<void(RcBatch&)>> cases[] = {
      {"die temperature",
       [&](RcBatch& b) {
         b.set_temperature(2, w->die, Celsius{std::nextafter(kColdDie, 100.0)});
       }},
      {"heatsink temperature",
       [&](RcBatch& b) {
         b.set_temperature(2, w->hs, Celsius{std::nextafter(kColdHeatsink, 100.0)});
       }},
      {"ambient temperature",
       [&](RcBatch& b) {
         b.set_fixed_temperature(2, w->amb, Celsius{std::nextafter(amb0, 100.0)});
       }},
      {"die power",
       [&](RcBatch& b) { b.set_power(2, w->die, Watts{std::nextafter(90.7, 100.0)}); }},
      {"die-heatsink conductance",
       [&](RcBatch& b) {
         b.set_resistance(2, w->die_hs, one_ulp_more_conductance(b.resistance(2, w->die_hs)));
       }},
      {"convection conductance",
       [&](RcBatch& b) {
         // The die bounds an 'A' column's step, so only the cell moves.
         const double step = b.min_time_constant(2).value();
         b.set_resistance(2, w->conv, one_ulp_more_conductance(b.resistance(2, w->conv)));
         EXPECT_EQ(bits(b.min_time_constant(2).value()), bits(step));
       }},
  };
  for (const auto& [name, nudge] : cases) {
    SCOPED_TRACE(name);
    expect_nudged_column_marches_alone(*w, 'A', nudge);
  }
}

TEST(RcBatchSettle, ColumnWhoseStepIsOneUlpApartMarchesOnItsOwn) {
  // X's step is one ulp shorter: its convection resistance is the nearest
  // below T's that moves the heatsink-bound time constant.
  auto w = make_package_rig();
  RcBatch probe = pattern_batch(*w, "T");
  const double tau = probe.min_time_constant(0).value();
  double r = probe.resistance(0, w->conv).value();
  while (probe.min_time_constant(0).value() == tau) {
    r = std::nextafter(r, 0.0);
    probe.set_resistance(0, w->conv, KelvinPerWatt{r});
  }
  ASSERT_EQ(bits(tau) - bits(probe.min_time_constant(0).value()), 1u);
  expect_nudged_column_marches_alone(
      *w, 'T', [&](RcBatch& b) { b.set_resistance(2, w->conv, KelvinPerWatt{r}); });
}

TEST(RcBatchSettle, DuplicateColumnsStepAfterASettleAsOne) {
  // StepsAfterASettlePlanAfresh with every column identical: each duplicate
  // takes its run's first column's settled state, and the steps after the
  // settle plan afresh in every column alike.
  const std::string pattern = "AAAAAA";
  auto w = make_package_rig();
  RcBatch together = pattern_batch(*w, pattern);
  RcBatch alone = pattern_batch(*w, pattern);
  RcBatch solo = pattern_batch(*w, "A");
  const Seconds dt{1.0};
  const KelvinPerWatt tight{0.005};
  {
    RcBatch probe = pattern_batch(*w, "A");
    const double primed_tau = probe.min_time_constant(0).value();
    probe.set_resistance(0, w->conv, tight);
    EXPECT_NE(std::ceil(dt.value() * 8.0 / primed_tau),
              std::ceil(dt.value() * 8.0 / probe.min_time_constant(0).value()));
  }
  for (RcBatch* batch : {&together, &alone, &solo}) {
    batch->step_all(dt);
    for (std::size_t b = 0; b < batch->instance_count(); ++b) {
      batch->set_resistance(b, w->conv, tight);
    }
  }
  together.settle_range(0, pattern.size());
  for (std::size_t b = 0; b < pattern.size(); ++b) {
    alone.settle(b);
  }
  solo.settle(0);
  for (int step = 0; step < 3; ++step) {
    for (RcBatch* batch : {&together, &alone, &solo}) {
      batch->step_all(dt);
    }
  }
  expect_columns_bitwise_equal(together, alone, *w);
  for (std::size_t b = 0; b < pattern.size(); ++b) {
    EXPECT_TRUE(column_matches(together, b, solo, *w));
  }
}

TEST(RcBatch, MemoryFootprintScalesWithInstances) {
  auto tmpl = make_package_rig();
  RcBatch small{tmpl->net, 16};
  RcBatch large{tmpl->net, 1024};
  EXPECT_GT(small.memory_bytes(), 0u);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
  // The hot per-instance state is (K temps + K powers + K flux + 2E conds)
  // doubles = (3*3 + 2*2)*8 = 104 bytes/instance for the package wiring,
  // plus K node taus and the min tau, (3 + 1)*8 = 32; shared structure
  // amortizes away at scale.
  const std::size_t delta = large.memory_bytes() - small.memory_bytes();
  EXPECT_NEAR(static_cast<double>(delta) / (1024 - 16), 104.0 + 32.0, 40.0);
}

}  // namespace
}  // namespace thermctl::thermal
