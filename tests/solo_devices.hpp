// Standalone hw devices for unit tests. Each owns a one-row column group and
// the device viewing row 0 of it, the way a one-node fleet would, so a test
// declares `SoloCpu cpu;` where it would otherwise need the group and the
// device side by side. The group comes first as a base, so it is built
// (with the device's params, when it has any) before the device that views
// it; a sensor's scripted truth comes before its group.
#pragma once

#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/adt7467.hpp"
#include "hw/cpu_device.hpp"
#include "hw/cstates.hpp"
#include "hw/fan_device.hpp"
#include "hw/power_meter.hpp"
#include "hw/thermal_sensor.hpp"

namespace thermctl::hw {

template <typename Columns>
struct OneRow {
  template <typename... Params>
  explicit OneRow(Params&&... params) : rows(1, std::forward<Params>(params)...) {}

  Columns rows;
};

struct SoloCpu : OneRow<CpuColumns>, CpuDevice {
  explicit SoloCpu(CpuParams params = {}) : OneRow(std::move(params)), CpuDevice(rows, 0) {}
};

struct SoloInjector : OneRow<InjectorColumns>, IdleInjector {
  explicit SoloInjector(IdleInjectorParams params = {})
      : OneRow(std::move(params)), IdleInjector(rows, 0) {}
};

struct SoloFan : OneRow<FanColumns>, FanDevice {
  explicit SoloFan(const FanParams& params = {}) : OneRow(params), FanDevice(rows, 0) {}
};

struct SoloChip : OneRow<ChipColumns>, Adt7467 {
  SoloChip() : Adt7467(rows, 0) {}
};

struct SoloMeter : OneRow<MeterColumns>, PowerMeter {
  explicit SoloMeter(const PowerMeterParams& params = {}) : OneRow(params), PowerMeter(rows, 0) {}
};

/// The true temperature a standalone sensor measures; the test scripts it.
struct SoloTruth {
  double truth;
};

struct SoloSensor : SoloTruth, OneRow<SensorColumns>, ThermalSensor {
  SoloSensor(const SensorParams& params, Rng rng, double truth_degc)
      : SoloTruth{truth_degc}, OneRow(params, &truth), ThermalSensor(rows, 0, rng) {}
};

}  // namespace thermctl::hw
