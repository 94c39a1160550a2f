// Figure 1: the traditional static fan curve — PWM duty vs temperature.
//
// Paper: "The traditional fan speed is set at PWMmin when the temperature is
// no more than Tmin, and increases linearly with temperature to full speed
// PWMmax when the temperature reaches Tmax. The parameter values in our
// cluster are: PWMmin=10%, Tmin=38°C and Tmax=82°C."
//
// Regenerated here from the ADT7467 model's automatic mode, i.e. the exact
// curve the traditional baseline runs on in Figs. 6-8.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "hw/adt7467.hpp"

int main() {
  using namespace thermctl;
  namespace tb = thermctl::bench;

  tb::banner("Figure 1", "static PWM-vs-temperature curve (ADT7467 automatic mode)");

  // The chip boots with the paper's curve: PWMmin 10%, Tmin 38, Trange 44.
  hw::ChipColumns chip_row{1};
  hw::Adt7467 chip{chip_row, 0};

  CsvWriter csv{tb::out_dir() + "/fig01_static_curve.csv", {"temp_c", "duty_pct"}};
  TextTable table{{"temp (degC)", "PWM duty (%)"}};
  for (int t = 28; t <= 92; t += 4) {
    const double duty = chip.auto_curve(Celsius{static_cast<double>(t)}).percent();
    csv.row({static_cast<double>(t), duty});
    table.add_row(std::to_string(t), {duty}, 1);
  }
  std::printf("%s", table.render().c_str());
  std::printf("  series written: %s/fig01_static_curve.csv\n", tb::out_dir().c_str());

  const double at_tmin = chip.auto_curve(Celsius{38.0}).percent();
  const double below = chip.auto_curve(Celsius{30.0}).percent();
  const double at_tmax = chip.auto_curve(Celsius{82.0}).percent();
  const double mid = chip.auto_curve(Celsius{60.0}).percent();
  tb::shape_check("duty == PWMmin (10%) at and below Tmin=38 degC",
                  at_tmin < 11.0 && below < 11.0);
  tb::shape_check("duty == 100% at Tmax=82 degC", at_tmax > 99.0);
  tb::shape_check("linear midpoint (~55%) at 60 degC", mid > 52.0 && mid < 58.0);
  return 0;
}
