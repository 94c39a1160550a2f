#include "thermal/package_model.hpp"

#include <gtest/gtest.h>

namespace thermctl::thermal {
namespace {

using namespace thermctl::literals;

/// One package: a PackageModel viewing a group of one.
class SoloPackage {
 public:
  explicit SoloPackage(const PackageParams& params = PackageParams{})
      : cols_(1, params), model_(cols_, 0) {}

  PackageModel* operator->() { return &model_; }
  [[nodiscard]] PackageColumns& cols() { return cols_; }

 private:
  PackageColumns cols_;
  PackageModel model_;
};

TEST(PackageModel, IsAGroupAndSlotView) {
  // The model holds a reference to its group and its row, nothing else.
  static_assert(sizeof(PackageModel) == 16);
}

TEST(PackageModel, StartsAtAmbient) {
  PackageParams params;
  SoloPackage pkg{params};
  EXPECT_NEAR(pkg->die_temperature().value(), params.ambient.value(), 1e-9);
  EXPECT_NEAR(pkg->heatsink_temperature().value(), params.ambient.value(), 1e-9);
}

TEST(PackageModel, SettleMatchesAnalyticSteadyState) {
  SoloPackage pkg;
  pkg->set_cpu_power(60.0_W);
  pkg->set_airflow(Cfm{16.0});
  pkg->settle();
  EXPECT_NEAR(pkg->die_temperature().value(),
              pkg->steady_state_die(60.0_W, Cfm{16.0}).value(), 1e-3);
}

TEST(PackageModel, MoreAirflowMeansCoolerDie) {
  SoloPackage pkg;
  pkg->set_cpu_power(60.0_W);
  double prev = 1e9;
  for (double v : {2.0, 8.0, 16.0, 24.0, 32.0}) {
    const double t = pkg->steady_state_die(60.0_W, Cfm{v}).value();
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(PackageModel, DieRespondsFasterThanHeatsink) {
  PackageParams params;
  SoloPackage pkg{params};
  pkg->set_airflow(Cfm{10.0});
  pkg->settle();
  pkg->set_cpu_power(65.0_W);
  pkg->step(Seconds{2.0});
  const double die_rise = pkg->die_temperature().value() - params.ambient.value();
  const double hs_rise = pkg->heatsink_temperature().value() - params.ambient.value();
  // After 2 s the die has moved substantially, the heatsink barely.
  EXPECT_GT(die_rise, 4.0 * hs_rise);
  EXPECT_GT(die_rise, 1.0);
}

TEST(PackageModel, SuddenLoadGivesSecondsScaleDieTransient) {
  // §3.1 Type I: the "sudden" behaviour must play out over a few seconds,
  // not milliseconds or minutes.
  SoloPackage pkg;
  pkg->set_airflow(Cfm{10.0});
  pkg->set_cpu_power(10.0_W);
  pkg->settle();
  const double t0 = pkg->die_temperature().value();
  pkg->set_cpu_power(65.0_W);
  pkg->step(Seconds{5.0});
  const double rise_5s = pkg->die_temperature().value() - t0;
  EXPECT_GT(rise_5s, 3.0);   // clearly visible within 5 s
  EXPECT_LT(rise_5s, 25.0);  // but nowhere near the full equilibrium rise yet
}

TEST(PackageModel, GradualHeatsinkDriftContinuesForMinutes) {
  // §3.1 Type II: after the sudden die jump, temperature keeps climbing
  // gradually as the heatsink mass charges.
  SoloPackage pkg;
  pkg->set_airflow(Cfm{10.0});
  pkg->set_cpu_power(10.0_W);
  pkg->settle();
  pkg->set_cpu_power(65.0_W);
  pkg->step(Seconds{10.0});
  const double t_10s = pkg->die_temperature().value();
  pkg->step(Seconds{110.0});
  const double t_2min = pkg->die_temperature().value();
  EXPECT_GT(t_2min - t_10s, 2.0);  // still drifting upward after the jump
}

TEST(PackageModel, AmbientShiftPropagates) {
  PackageParams params;
  SoloPackage pkg{params};
  pkg->set_cpu_power(40.0_W);
  pkg->set_airflow(Cfm{16.0});
  pkg->settle();
  const double before = pkg->die_temperature().value();
  pkg->set_ambient(params.ambient + CelsiusDelta{10.0});  // rack hot spot
  pkg->settle();
  EXPECT_NEAR(pkg->die_temperature().value(), before + 10.0, 0.01);
}

TEST(PackageModel, AirflowAccessorRoundTrips) {
  SoloPackage pkg;
  pkg->set_airflow(Cfm{12.5});
  EXPECT_DOUBLE_EQ(pkg->airflow().value(), 12.5);
}

TEST(PackageModel, CpuPowerAccessor) {
  SoloPackage pkg;
  pkg->set_cpu_power(33.0_W);
  EXPECT_DOUBLE_EQ(pkg->cpu_power().value(), 33.0);
}

TEST(PackageModel, ViewReadsAndWritesItsRow) {
  // The model holds no thermal state of its own: power, convection and
  // ambient land in the group's row, and temperatures read back from it.
  SoloPackage pkg;
  pkg->set_cpu_power(41.0_W);
  pkg->set_airflow(Cfm{20.0});
  pkg->set_ambient(Celsius{31.0});
  EXPECT_DOUBLE_EQ(pkg.cols().p_die[0], 41.0);
  EXPECT_DOUBLE_EQ(pkg.cols().g_conv[0],
                   1.0 / ConvectionModel{PackageParams{}.convection}.resistance(Cfm{20.0}).value());
  EXPECT_DOUBLE_EQ(pkg.cols().t_amb[0], 31.0);
  pkg->step(Seconds{1.0});
  EXPECT_DOUBLE_EQ(pkg->die_temperature().value(), pkg.cols().t_die[0]);
  EXPECT_DOUBLE_EQ(pkg->heatsink_temperature().value(), pkg.cols().t_hs[0]);
  EXPECT_DOUBLE_EQ(pkg->ambient_temperature().value(), 31.0);
}

TEST(PackageModel, SetAirflowSkipsARepeatedAirflow) {
  // The memo re-evaluates the convection law only when the airflow moved:
  // a conductance written behind its back survives a repeat of the same
  // airflow and is replaced by the next different one.
  SoloPackage pkg;
  PackageColumns& cols = pkg.cols();
  pkg->set_airflow(Cfm{10.0});
  cols.g_conv[0] = 123.0;
  pkg->set_airflow(Cfm{10.0});
  EXPECT_EQ(cols.g_conv[0], 123.0);
  pkg->set_airflow(Cfm{12.0});
  EXPECT_EQ(cols.g_conv[0], 1.0 / cols.convection.resistance(Cfm{12.0}).value());
  EXPECT_EQ(pkg->airflow().value(), 12.0);
}

TEST(PackageModel, FirstAirflowAppliesEvenWhenItEqualsTheFreshMemo) {
  // A fresh row's memo holds 0 CFM but marks it unset: the first airflow
  // is applied even when it is 0 CFM, and only then does the memo skip.
  SoloPackage pkg;
  PackageColumns& cols = pkg.cols();
  ASSERT_EQ(cols.cfm[0], 0.0);
  ASSERT_EQ(cols.set[0], 0);
  cols.g_conv[0] = 123.0;
  pkg->set_airflow(Cfm{0.0});
  EXPECT_EQ(cols.g_conv[0], 1.0 / cols.convection.still_air_resistance().value());
  EXPECT_EQ(cols.set[0], 1);
  cols.g_conv[0] = 123.0;
  pkg->set_airflow(Cfm{0.0});
  EXPECT_EQ(cols.g_conv[0], 123.0);
}

TEST(PackageModel, SteadyStateDieReadsItsRowsAmbientAndMovesNothing) {
  // Two views on one group: each answers at its own row's ambient, and
  // asking changes no cell of either row.
  PackageColumns cols{2, PackageParams{}};
  PackageModel a{cols, 0};
  PackageModel b{cols, 1};
  a.set_ambient(Celsius{25.0});
  b.set_ambient(Celsius{35.0});
  const PackageColumns before = cols;
  const double ta = a.steady_state_die(Watts{50.0}, Cfm{16.0}).value();
  const double tb = b.steady_state_die(Watts{50.0}, Cfm{16.0}).value();
  EXPECT_NEAR(tb - ta, 10.0, 1e-9);
  const double r_total = PackageParams{}.r_die_heatsink.value() +
                         cols.convection.resistance(Cfm{16.0}).value();
  EXPECT_NEAR(ta, 25.0 + 50.0 * r_total, 1e-9);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(cols.t_die[r], before.t_die[r]);
    EXPECT_EQ(cols.t_hs[r], before.t_hs[r]);
    EXPECT_EQ(cols.p_die[r], before.p_die[r]);
    EXPECT_EQ(cols.g_conv[r], before.g_conv[r]);
    EXPECT_EQ(cols.set[r], before.set[r]);
  }
}

TEST(PackageModelDeath, RejectsSlotOutOfRange) {
  PackageColumns cols{2, PackageParams{}};
  EXPECT_DEATH((PackageModel{cols, 2}), "slot out of range");
}

TEST(PackageModel, OperatingEnvelopeMatchesPaperPlatform) {
  // The paper's platform idles just below the static curve's Tmin (38 °C)
  // and runs flat-out in the 45–70 °C band depending on fan speed.
  SoloPackage pkg;
  const double idle = pkg->steady_state_die(Watts{13.0}, Cfm{3.0}).value();
  EXPECT_GT(idle, 30.0);
  EXPECT_LT(idle, 40.0);
  const double burn_fast_fan = pkg->steady_state_die(Watts{62.0}, Cfm{32.0}).value();
  EXPECT_GT(burn_fast_fan, 42.0);
  EXPECT_LT(burn_fast_fan, 55.0);
  const double burn_slow_fan = pkg->steady_state_die(Watts{62.0}, Cfm{3.0}).value();
  EXPECT_GT(burn_slow_fan, 55.0);
  EXPECT_LT(burn_slow_fan, 80.0);
}

}  // namespace
}  // namespace thermctl::thermal
