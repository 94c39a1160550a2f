// RcBatch bit-exactness against per-node RcNetwork stepping.
//
// The batch is a pure layout change: B structurally identical networks in
// structure-of-arrays storage, advanced by one vectorized loop. Its contract
// is *bitwise* agreement with the same call sequence on standalone
// RcNetworks — including the substep-plan cache's recompute conditions and
// the settle()/min_time_constant() interaction that can leave a stale plan.
// Heterogeneous structures must be rejected by matches() so callers fall
// back to per-node stepping.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
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
// same way PackageModel wires it.
struct PackageWiring {
  RcNetwork net;
  NodeId die;
  NodeId hs;
  NodeId amb;
  EdgeId die_hs;
  EdgeId conv;
};

std::unique_ptr<PackageWiring> make_package_wiring() {
  const PackageParams p;
  auto w = std::make_unique<PackageWiring>();
  w->die = w->net.add_node("die", p.c_die, Celsius{40.0});
  w->hs = w->net.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  w->amb = w->net.add_fixed_node("ambient", p.ambient);
  w->die_hs = w->net.add_edge(w->die, w->hs, p.r_die_heatsink);
  w->conv = w->net.add_edge(w->hs, w->amb, KelvinPerWatt{0.5});
  return w;
}

TEST(RcBatch, MirrorsTemplateStateAtConstruction) {
  auto tmpl = make_package_wiring();
  tmpl->net.set_power(tmpl->die, Watts{37.5});
  tmpl->net.set_resistance(tmpl->conv, KelvinPerWatt{0.31});
  RcBatch batch{tmpl->net, 4};

  EXPECT_EQ(batch.instance_count(), 4u);
  EXPECT_EQ(batch.rc_node_count(), 3u);
  EXPECT_EQ(batch.edge_count(), 2u);
  EXPECT_EQ(batch.node_name(tmpl->die), "die");
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                   tmpl->net.temperature(tmpl->die).value());
    EXPECT_BITS_EQ(batch.power(b, tmpl->die).value(), 37.5);
    EXPECT_BITS_EQ(batch.resistance(b, tmpl->conv).value(),
                   tmpl->net.resistance(tmpl->conv).value());
  }
  EXPECT_TRUE(batch.matches(tmpl->net));
}

TEST(RcBatch, TrajectoriesBitExactAgainstStandaloneNetworks) {
  // Five instances driven with five *different* power/convection schedules,
  // mirrored onto five standalone networks; every temperature must agree
  // bitwise at every step. Schedules include repeated resistances (hitting
  // the set_resistance early-out) and dt changes (plan recompute).
  constexpr std::size_t kInstances = 5;
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kInstances};
  std::vector<std::unique_ptr<PackageWiring>> solo;
  for (std::size_t b = 0; b < kInstances; ++b) {
    solo.push_back(make_package_wiring());
  }

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
      solo[b]->net.set_power(solo[b]->die, Watts{power});
      solo[b]->net.set_resistance(solo[b]->conv, KelvinPerWatt{r_conv});
    }
    const Seconds dt{dts[rng.below(4)]};
    batch.step_all(dt);
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b]->net.step(dt);
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                     solo[b]->net.temperature(solo[b]->die).value())
          << "die diverged, instance " << b << " step " << step;
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->hs).value(),
                     solo[b]->net.temperature(solo[b]->hs).value())
          << "heatsink diverged, instance " << b << " step " << step;
    }
  }
}

TEST(RcBatch, HeterogeneousSubstepPlansSplitTheRangeNotTheArithmetic) {
  // Give instances wildly different convection resistances so their smallest
  // time constants — hence substep counts at dt = 2 s — differ. step_all must
  // still match per-instance stepping bitwise: runs split, arithmetic doesn't.
  constexpr std::size_t kInstances = 7;
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kInstances};
  std::vector<std::unique_ptr<PackageWiring>> solo;
  for (std::size_t b = 0; b < kInstances; ++b) {
    solo.push_back(make_package_wiring());
    const double r_conv = 0.02 * static_cast<double>(b + 1);  // 0.02 .. 0.14
    batch.set_resistance(b, tmpl->conv, KelvinPerWatt{r_conv});
    solo[b]->net.set_resistance(solo[b]->conv, KelvinPerWatt{r_conv});
    batch.set_power(b, tmpl->die, Watts{60.0});
    solo[b]->net.set_power(solo[b]->die, Watts{60.0});
  }
  for (int step = 0; step < 50; ++step) {
    batch.step_all(Seconds{2.0});
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b]->net.step(Seconds{2.0});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                     solo[b]->net.temperature(solo[b]->die).value())
          << "instance " << b << " step " << step;
    }
    ASSERT_BITS_EQ(batch.min_time_constant(2).value(),
                   solo[2]->net.min_time_constant().value());
  }
}

TEST(RcBatch, StepRangeAdvancesOnlyTheRange) {
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 3};
  for (std::size_t b = 0; b < 3; ++b) {
    batch.set_power(b, tmpl->die, Watts{80.0});
  }
  const double before = batch.temperature(2, tmpl->die).value();
  batch.step_range(Seconds{0.05}, 0, 2);
  EXPECT_BITS_EQ(batch.temperature(2, tmpl->die).value(), before);
  EXPECT_NE(bits(batch.temperature(0, tmpl->die).value()), bits(before));
}

TEST(RcBatch, SettleAndStalePlanQuirkMatchStandalone) {
  // RcNetwork has a deliberate-looking wart: set_resistance marks the
  // stability bound dirty, but settle()/min_time_constant() clears the bit
  // without refreshing the cached substep plan, so the next step(dt) with an
  // unchanged dt runs on the stale plan. The batch must reproduce exactly
  // this, or trajectories fork after the first settle-then-step sequence.
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 2};
  auto solo = make_package_wiring();

  auto drive = [&](double power, double r_conv) {
    batch.set_power(1, tmpl->die, Watts{power});
    batch.set_resistance(1, tmpl->conv, KelvinPerWatt{r_conv});
    solo->net.set_power(solo->die, Watts{power});
    solo->net.set_resistance(solo->conv, KelvinPerWatt{r_conv});
  };
  auto check = [&](const char* what) {
    ASSERT_BITS_EQ(batch.temperature(1, tmpl->die).value(),
                   solo->net.temperature(solo->die).value())
        << what;
    ASSERT_BITS_EQ(batch.temperature(1, tmpl->hs).value(),
                   solo->net.temperature(solo->hs).value())
        << what;
  };

  // Prime a plan at dt = 1.0.
  drive(40.0, 0.5);
  batch.step_one(1, Seconds{1.0});
  solo->net.step(Seconds{1.0});
  check("after priming step");

  // Shrink the time constant (more substeps would be needed), then clear the
  // dirty bit via min_time_constant — next step must reuse the stale plan.
  drive(40.0, 0.05);
  ASSERT_BITS_EQ(batch.min_time_constant(1).value(),
                 solo->net.min_time_constant().value());
  batch.step_one(1, Seconds{1.0});
  solo->net.step(Seconds{1.0});
  check("after stale-plan step");

  // And settle() itself must agree bitwise.
  drive(25.0, 0.3);
  batch.settle(1);
  solo->net.settle();
  check("after settle");
}

TEST(RcBatch, MatchesRejectsStructuralDifferences) {
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 1};

  // Same structure, different state: still a match.
  auto same = make_package_wiring();
  same->net.set_power(same->die, Watts{99.0});
  same->net.set_resistance(same->conv, KelvinPerWatt{0.17});
  same->net.set_temperature(same->die, Celsius{70.0});
  EXPECT_TRUE(batch.matches(same->net));

  // Different capacitance (a beefier heatsink): structural, no match.
  {
    RcNetwork other;
    const PackageParams p;
    const NodeId die = other.add_node("die", p.c_die, Celsius{40.0});
    const NodeId hs = other.add_node("heatsink", JoulesPerKelvin{300.0}, Celsius{35.0});
    const NodeId amb = other.add_fixed_node("ambient", p.ambient);
    other.add_edge(die, hs, p.r_die_heatsink);
    other.add_edge(hs, amb, KelvinPerWatt{0.5});
    EXPECT_FALSE(batch.matches(other));
  }
  // Extra node (e.g. a second die): no match.
  {
    auto other = make_package_wiring();
    other->net.add_node("die2", JoulesPerKelvin{22.0}, Celsius{40.0});
    EXPECT_FALSE(batch.matches(other->net));
  }
  // Same counts, different edge wiring: no match.
  {
    RcNetwork other;
    const PackageParams p;
    const NodeId die = other.add_node("die", p.c_die, Celsius{40.0});
    const NodeId hs = other.add_node("heatsink", p.c_heatsink, Celsius{35.0});
    const NodeId amb = other.add_fixed_node("ambient", p.ambient);
    other.add_edge(die, amb, p.r_die_heatsink);  // die vented straight out
    other.add_edge(hs, amb, KelvinPerWatt{0.5});
    EXPECT_FALSE(batch.matches(other));
  }
  // Fixed/dynamic flip: no match.
  {
    RcNetwork other;
    const PackageParams p;
    const NodeId die = other.add_node("die", p.c_die, Celsius{40.0});
    const NodeId hs = other.add_node("heatsink", p.c_heatsink, Celsius{35.0});
    const NodeId amb = other.add_node("ambient", JoulesPerKelvin{1e6}, p.ambient);
    other.add_edge(die, hs, p.r_die_heatsink);
    other.add_edge(hs, amb, KelvinPerWatt{0.5});
    EXPECT_FALSE(batch.matches(other));
  }
}

TEST(RcBatch, MixedFleetStepsTheOddOneOutStandalone) {
  // A fleet where one machine has different hardware: the batch carries the
  // homogeneous majority, the odd network steps standalone, and both match
  // their respective per-node references.
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, 2};
  std::vector<std::unique_ptr<PackageWiring>> solo;
  solo.push_back(make_package_wiring());
  solo.push_back(make_package_wiring());

  // The odd machine: extra chassis node between heatsink and ambient.
  RcNetwork odd;
  const PackageParams p;
  const NodeId odie = odd.add_node("die", p.c_die, Celsius{40.0});
  const NodeId ohs = odd.add_node("heatsink", p.c_heatsink, Celsius{35.0});
  const NodeId ochassis = odd.add_node("chassis", JoulesPerKelvin{400.0}, Celsius{30.0});
  const NodeId oamb = odd.add_fixed_node("ambient", p.ambient);
  odd.add_edge(odie, ohs, p.r_die_heatsink);
  odd.add_edge(ohs, ochassis, KelvinPerWatt{0.2});
  odd.add_edge(ochassis, oamb, KelvinPerWatt{0.4});
  ASSERT_FALSE(batch.matches(odd));

  odd.set_power(odie, Watts{55.0});
  for (std::size_t b = 0; b < 2; ++b) {
    batch.set_power(b, tmpl->die, Watts{55.0});
    solo[b]->net.set_power(solo[b]->die, Watts{55.0});
  }
  const double odd_start = odd.temperature(odie).value();
  for (int step = 0; step < 200; ++step) {
    batch.step_all(Seconds{0.05});
    odd.step(Seconds{0.05});
    for (std::size_t b = 0; b < 2; ++b) {
      solo[b]->net.step(Seconds{0.05});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                     solo[b]->net.temperature(solo[b]->die).value());
    }
  }
  EXPECT_GT(odd.temperature(odie).value(), odd_start);  // odd one still simulated
}

// The vectorized substep sweeps process instances in SIMD lanes; counts not
// divisible by the vector width leave scalar tail iterations, and step_range
// can start/end mid-register. Every such shape must stay bit-exact against
// per-node stepping. Widths up to 8 doubles (AVX-512) are covered by counts
// 1..13.
class RcBatchTailSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RcBatchTailSweep, OddInstanceCountsStayBitExact) {
  const std::size_t instances = GetParam();
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, instances};
  std::vector<std::unique_ptr<PackageWiring>> solo;
  for (std::size_t b = 0; b < instances; ++b) {
    solo.push_back(make_package_wiring());
    // Distinct per-instance powers so a lane mixup cannot cancel out.
    const double power = 20.0 + 7.0 * static_cast<double>(b);
    batch.set_power(b, tmpl->die, Watts{power});
    solo[b]->net.set_power(solo[b]->die, Watts{power});
  }
  for (int step = 0; step < 400; ++step) {
    batch.step_all(Seconds{0.05});
    for (std::size_t b = 0; b < instances; ++b) {
      solo[b]->net.step(Seconds{0.05});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                     solo[b]->net.temperature(solo[b]->die).value())
          << "instance " << b << " of " << instances << " step " << step;
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->hs).value(),
                     solo[b]->net.temperature(solo[b]->hs).value())
          << "instance " << b << " of " << instances << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TailCounts, RcBatchTailSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 13u));

TEST(RcBatch, StepRangeMisalignedBoundsStayBitExact) {
  // Shard boundaries land mid-register: step [0,3), [3,10) and [10,13)
  // separately (as the sharded engine would) and require bitwise agreement
  // with 13 standalone networks stepped with the same dt.
  constexpr std::size_t kInstances = 13;
  auto tmpl = make_package_wiring();
  RcBatch batch{tmpl->net, kInstances};
  std::vector<std::unique_ptr<PackageWiring>> solo;
  for (std::size_t b = 0; b < kInstances; ++b) {
    solo.push_back(make_package_wiring());
    const double power = 15.0 + 5.0 * static_cast<double>(b);
    batch.set_power(b, tmpl->die, Watts{power});
    solo[b]->net.set_power(solo[b]->die, Watts{power});
  }
  const std::size_t bounds[] = {0, 3, 10, 13};
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s + 1 < 4; ++s) {
      batch.step_range(Seconds{0.05}, bounds[s], bounds[s + 1]);
    }
    for (std::size_t b = 0; b < kInstances; ++b) {
      solo[b]->net.step(Seconds{0.05});
      ASSERT_BITS_EQ(batch.temperature(b, tmpl->die).value(),
                     solo[b]->net.temperature(solo[b]->die).value())
          << "instance " << b << " step " << step;
    }
  }
}

// ---- batched settle ----
// settle_range marches many columns at once. Its contract: every column ends
// bitwise where settling that column alone (settle(b), which is
// settle_range(b, b + 1)) leaves it, including the stale-plan bit the step's
// min_time_constant() read clears.

/// Column b's load: power and convection vary with b, so neighbouring columns
/// march with different steps and converge at different iterations. The
/// tighter convections make the heatsink, not the die, bound the step; the
/// looser ones leave the die bound, so some neighbours share a step.
Watts settle_power(std::size_t b) { return Watts{5.0 + 7.0 * static_cast<double>(b % 13)}; }
KelvinPerWatt settle_conv(std::size_t b) {
  return KelvinPerWatt{0.004 + 0.004 * static_cast<double>(b % 7)};
}

RcBatch loaded_batch(const PackageWiring& w, std::size_t instances) {
  RcBatch batch{w.net, instances};
  for (std::size_t b = 0; b < instances; ++b) {
    batch.set_power(b, w.die, settle_power(b));
    batch.set_resistance(b, w.conv, settle_conv(b));
  }
  return batch;
}

void expect_columns_bitwise_equal(const RcBatch& a, const RcBatch& b, const PackageWiring& w) {
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
int settle_iterations(RcBatch batch, const PackageWiring& w, std::size_t b) {
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
  auto w = make_package_wiring();
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
  auto w = make_package_wiring();
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
  auto w = make_package_wiring();
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

TEST(RcBatchSettle, SettleThenStepKeepsThePlanCacheQuirk) {
  // Prime a substep plan, shrink every column's time constant (the plan goes
  // stale), then settle: the settle's step read clears the stale bit without
  // refreshing the plan, so the next step at the same dt reuses the old plan.
  // Batched settle, per-column settle and standalone networks must agree.
  constexpr std::size_t kInstances = 6;
  auto w = make_package_wiring();
  RcBatch together = loaded_batch(*w, kInstances);
  RcBatch alone = loaded_batch(*w, kInstances);
  std::vector<std::unique_ptr<PackageWiring>> solo;
  for (std::size_t b = 0; b < kInstances; ++b) {
    solo.push_back(make_package_wiring());
    solo[b]->net.set_power(solo[b]->die, settle_power(b));
    solo[b]->net.set_resistance(solo[b]->conv, settle_conv(b));
  }
  const Seconds dt{1.0};
  together.step_all(dt);
  alone.step_all(dt);
  for (auto& s : solo) {
    s->net.step(dt);
  }
  // Tight enough that the heatsink, not the die, bounds the substep: a fresh
  // plan at dt would take more substeps than the primed one.
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
    solo[b]->net.set_resistance(solo[b]->conv, tight(b));
  }
  together.settle_range(0, kInstances);
  for (std::size_t b = 0; b < kInstances; ++b) {
    alone.settle(b);
    solo[b]->net.settle();
  }
  for (int step = 0; step < 3; ++step) {
    together.step_all(dt);
    alone.step_all(dt);
    for (auto& s : solo) {
      s->net.step(dt);
    }
  }
  expect_columns_bitwise_equal(together, alone, *w);
  for (std::size_t b = 0; b < kInstances; ++b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(together.temperature(b, w->die).value()),
              std::bit_cast<std::uint64_t>(solo[b]->net.temperature(solo[b]->die).value()))
        << "column " << b;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(together.temperature(b, w->hs).value()),
              std::bit_cast<std::uint64_t>(solo[b]->net.temperature(solo[b]->hs).value()))
        << "column " << b;
  }
}

TEST(RcBatch, MemoryFootprintScalesWithInstances) {
  auto tmpl = make_package_wiring();
  RcBatch small{tmpl->net, 16};
  RcBatch large{tmpl->net, 1024};
  EXPECT_GT(small.memory_bytes(), 0u);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
  // The hot per-instance state is (K temps + K powers + K flux + 2E conds)
  // doubles = (3*3 + 2*2)*8 = 104 bytes/instance for the package wiring;
  // shared structure amortizes away at scale.
  const std::size_t delta = large.memory_bytes() - small.memory_bytes();
  EXPECT_NEAR(static_cast<double>(delta) / (1024 - 16), 104.0 + 8.0 * 2 + 1.0 + 4.0, 40.0);
}

}  // namespace
}  // namespace thermctl::thermal
