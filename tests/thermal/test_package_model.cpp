#include "thermal/package_model.hpp"

#include <gtest/gtest.h>

#include "thermal/rc_batch.hpp"
#include "thermal/rc_network.hpp"

namespace thermctl::thermal {
namespace {

using namespace thermctl::literals;

/// One package: a PackageModel viewing a one-column RcBatch and a one-row
/// airflow memo.
class SoloPackage {
 public:
  explicit SoloPackage(const PackageParams& params = PackageParams{})
      : batch_(wire(params, &wiring_)),
        airflow_(1, params.convection),
        model_(params, wiring_, batch_, airflow_, 0) {}

  PackageModel* operator->() { return &model_; }
  [[nodiscard]] const RcBatch& batch() const { return batch_; }
  [[nodiscard]] const PackageWiring& wiring() const { return wiring_; }

 private:
  static RcBatch wire(const PackageParams& params, PackageWiring* wiring) {
    RcNetwork net;
    *wiring = PackageModel::wire_network(params, net);
    return RcBatch{net, 1};
  }

  PackageWiring wiring_{};
  RcBatch batch_;
  AirflowColumns airflow_;
  PackageModel model_;
};

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

TEST(PackageModel, ViewReadsAndWritesItsBatchColumn) {
  // The model holds no thermal state of its own: power, convection and
  // ambient land in the batch column, and temperatures read back from it.
  SoloPackage pkg;
  const PackageWiring& w = pkg.wiring();
  pkg->set_cpu_power(41.0_W);
  pkg->set_airflow(Cfm{20.0});
  pkg->set_ambient(Celsius{31.0});
  EXPECT_DOUBLE_EQ(pkg.batch().power(0, w.die).value(), 41.0);
  EXPECT_DOUBLE_EQ(pkg.batch().resistance(0, w.hs_amb).value(),
                   ConvectionModel{PackageParams{}.convection}.resistance(Cfm{20.0}).value());
  EXPECT_DOUBLE_EQ(pkg.batch().temperature(0, w.ambient).value(), 31.0);
  pkg->step(Seconds{1.0});
  EXPECT_DOUBLE_EQ(pkg->die_temperature().value(), pkg.batch().temperature(0, w.die).value());
  EXPECT_DOUBLE_EQ(pkg->heatsink_temperature().value(),
                   pkg.batch().temperature(0, w.heatsink).value());
  EXPECT_DOUBLE_EQ(pkg->ambient_temperature().value(), 31.0);
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
