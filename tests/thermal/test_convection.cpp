#include "thermal/convection.hpp"

#include <gtest/gtest.h>

namespace thermctl::thermal {
namespace {

TEST(Convection, ResistanceDecreasesWithAirflow) {
  ConvectionModel m;
  double prev = m.resistance(Cfm{0.0}).value();
  for (double v = 2.0; v <= 32.0; v += 2.0) {
    const double r = m.resistance(Cfm{v}).value();
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(Convection, StillAirMatchesNaturalConductance) {
  ConvectionParams p;
  p.g_natural = 2.0;
  p.r_conduction = KelvinPerWatt{0.1};
  ConvectionModel m{p};
  EXPECT_NEAR(m.still_air_resistance().value(), 0.1 + 0.5, 1e-12);
}

TEST(Convection, ApproachesConductionFloorAtHighAirflow) {
  ConvectionModel m;
  const double floor = m.params().r_conduction.value();
  const double r = m.resistance(Cfm{10000.0}).value();
  EXPECT_GT(r, floor);
  EXPECT_NEAR(r, floor, 0.01);
}

TEST(Convection, DiminishingReturns) {
  // The Fig. 7 phenomenon: the 25→50% airflow gain dwarfs the 75→100% gain.
  ConvectionModel m;
  const double r25 = m.resistance(Cfm{8.0}).value();
  const double r50 = m.resistance(Cfm{16.0}).value();
  const double r75 = m.resistance(Cfm{24.0}).value();
  const double r100 = m.resistance(Cfm{32.0}).value();
  EXPECT_GT(r25 - r50, r50 - r75);
  EXPECT_GT(r50 - r75, r75 - r100);
}

TEST(Convection, ExponentControlsShape) {
  ConvectionParams linear;
  linear.exponent = 1.0;
  ConvectionParams sublinear;
  sublinear.exponent = 0.5;
  const double r_lin = ConvectionModel{linear}.resistance(Cfm{16.0}).value();
  const double r_sub = ConvectionModel{sublinear}.resistance(Cfm{16.0}).value();
  // For v > 1, higher exponent gives more conductance → less resistance.
  EXPECT_LT(r_lin, r_sub);
}

TEST(ConvectionDeath, RejectsNegativeAirflow) {
  ConvectionModel m;
  EXPECT_DEATH((void)m.resistance(Cfm{-1.0}), "airflow");
}

TEST(ConvectionDeath, RejectsNonPositiveNaturalConductance) {
  ConvectionParams p;
  p.g_natural = 0.0;
  EXPECT_DEATH(ConvectionModel{p}, "natural");
}

TEST(ConvectionDeath, RejectsAbsurdExponent) {
  ConvectionParams p;
  p.exponent = 3.0;
  EXPECT_DEATH(ConvectionModel{p}, "exponent");
}

}  // namespace
}  // namespace thermctl::thermal
