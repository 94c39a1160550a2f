// Pins the bits of the package thermal solve through the fleet's public
// surface: every temperature cell of a seven-node fleet, digested after
// every step of a seeded schedule of power, airflow and ambient changes.
//
// The schedule steps the fleet's batch with misaligned range bounds, at
// dt = 0.05 s and at dt in {1, 2.5, 10} s (which plan several substeps),
// and settles ranges that hold runs of bitwise-identical columns. A second
// fleet has a heatsink small enough that high airflow makes it, not the
// die, bound the substep, so its columns plan differently from each other.
// A change to the solver's arithmetic, its substep plan or its settle moves
// a digest.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "thermal/convection.hpp"
#include "thermal/package_model.hpp"

namespace thermctl::cluster {
namespace {

constexpr std::size_t kColumns = 7;
/// Columns [0, kTwins) take one shared schedule, so they stay bitwise
/// identical and a settle over them finds a run of duplicates.
constexpr std::size_t kTwins = 3;
constexpr double kDts[] = {0.05, 1.0, 2.5, 10.0};

/// Airflow of schedule draw `k`: quantized, so values repeat across steps
/// and the airflow memo's early-out runs too.
double airflow_cfm(std::uint64_t k) { return 2.0 * static_cast<double>(k); }
constexpr std::uint64_t kAirflowLevels = 21;  // 0 .. 40 CFM

/// FNV-1a over the bit patterns of doubles.
class Digest {
 public:
  void add(double x) {
    const auto u = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_schedule(const thermal::PackageParams& package, std::uint64_t seed) {
  NodeParams base;
  base.package = package;
  Cluster rack{kColumns, base};
  FleetState& fleet = *rack.fleet();
  Rng rng{seed};
  Digest digest;
  for (int step = 0; step < 600; ++step) {
    const double twin_power = 10.0 + 80.0 * rng.uniform();
    const double twin_cfm = airflow_cfm(rng.below(kAirflowLevels));
    const bool ambient_moves = step % 50 == 17;
    const double twin_ambient = 25.0 + 10.0 * rng.uniform();
    for (std::size_t i = 0; i < kColumns; ++i) {
      thermal::PackageModel& pkg = rack.node(i).package();
      const bool twin = i < kTwins;
      const double power = twin ? twin_power : 10.0 + 80.0 * rng.uniform();
      const double cfm = twin ? twin_cfm : airflow_cfm(rng.below(kAirflowLevels));
      const double ambient = twin ? twin_ambient : 25.0 + 10.0 * rng.uniform();
      pkg.set_cpu_power(Watts{power});
      pkg.set_airflow(Cfm{cfm});
      if (ambient_moves) {
        pkg.set_ambient(Celsius{ambient});
      }
    }
    // Shard-like bounds that land anywhere, empty ranges included.
    std::size_t cut_a = rng.below(kColumns + 1);
    std::size_t cut_b = rng.below(kColumns + 1);
    if (cut_a > cut_b) {
      std::swap(cut_a, cut_b);
    }
    const Seconds dt{kDts[rng.below(4)]};
    fleet.batch().step_range(dt, 0, cut_a);
    fleet.batch().step_range(dt, cut_a, cut_b);
    fleet.batch().step_range(dt, cut_b, kColumns);
    if (step % 150 == 149) {
      // [1, 6) starts inside the twins' run; [0, 7) holds all of it.
      fleet.batch().settle_range(step % 300 == 149 ? 1 : 0, step % 300 == 149 ? 6 : kColumns);
    }
    for (std::size_t i = 0; i < kColumns; ++i) {
      thermal::PackageModel& pkg = rack.node(i).package();
      digest.add(pkg.die_temperature().value());
      digest.add(pkg.heatsink_temperature().value());
      digest.add(pkg.ambient_temperature().value());
    }
  }
  return digest.value();
}

/// Substeps a step of `dt` plans for a package at airflow `cfm`, from the
/// chain's two node time constants.
int planned_substeps(const thermal::PackageParams& p, double dt, double cfm) {
  const double g_die_hs = 1.0 / p.r_die_heatsink.value();
  const double g_conv =
      1.0 / thermal::ConvectionModel{p.convection}.resistance(Cfm{cfm}).value();
  const double tau = std::min(p.c_die.value() / g_die_hs,
                              p.c_heatsink.value() / (g_die_hs + g_conv));
  return static_cast<int>(std::ceil(dt / (tau / 8.0)));
}

TEST(PackagePin, DefaultPackageFleetDigest) {
  const thermal::PackageParams package;
  // The premise: the die bounds every column's substep at any airflow.
  std::set<int> plans;
  for (std::uint64_t k = 0; k < kAirflowLevels; ++k) {
    plans.insert(planned_substeps(package, 10.0, airflow_cfm(k)));
  }
  EXPECT_EQ(plans.size(), 1u);
  EXPECT_EQ(digest_schedule(package, 20100913), 0x6db6308fe132d560ULL);
}

TEST(PackagePin, SmallHeatsinkFleetDigest) {
  thermal::PackageParams package;
  package.c_heatsink = JoulesPerKelvin{30.0};
  // The premise: high airflow makes the heatsink bound the substep, so
  // columns at different airflows plan different substep counts.
  std::set<int> plans;
  for (std::uint64_t k = 0; k < kAirflowLevels; ++k) {
    plans.insert(planned_substeps(package, 10.0, airflow_cfm(k)));
  }
  EXPECT_GT(plans.size(), 3u);
  EXPECT_EQ(digest_schedule(package, 20100914), 0x6bccd0d6346e03f5ULL);
}

}  // namespace
}  // namespace thermctl::cluster
