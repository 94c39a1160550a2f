// Digital thermal sensor model.
//
// The controller never sees the true die temperature — it sees what the
// on-die diode + ADC report: a quantized, noisy, sample-and-hold value at a
// fixed rate (the paper samples at 4 Hz via lm-sensors). Quantization noise
// is precisely what produces the "jitter" (Type III) behaviour the two-level
// window must ignore, so the sensor model is load-bearing for the evaluation.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/columns.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace thermctl::hw {

struct SensorParams {
  /// ADC step (lm-sensors k8temp exposes 1 °C; the ADT7467 remote channel
  /// resolves 0.25 °C — default to the finer one, experiments can coarsen).
  double quantization_degc = 0.25;
  /// Gaussian measurement noise before quantization (1 sigma).
  double noise_sigma_degc = 0.18;
  /// Fixed calibration offset.
  double offset_degc = 0.0;

  // One conversion on raw cells: the only copy of the sensor's arithmetic.
  // ThermalSensor::sample runs it on its row and FleetSweep::sample_range on
  // every due row of a pass.

  /// Converts `truth_degc` (offset, noise from `rng`, quantization) into the
  /// sample-and-hold register `last_degc` and returns the reading. A stuck
  /// register that already holds a conversion keeps it and draws nothing.
  double convert(double truth_degc, Rng& rng, double& last_degc, std::uint8_t stuck,
                 std::uint8_t& has_reading) const {
    if (stuck != 0 && has_reading != 0) {
      return last_degc;
    }
    double v = truth_degc + offset_degc;
    if (noise_sigma_degc > 0.0) {
      v += rng.normal(0.0, noise_sigma_degc);
    }
    v = std::round(v / quantization_degc) * quantization_degc;
    last_degc = v;
    has_reading = 1;
    return v;
  }
};

/// The sensors' constants, once for every row, the true temperature each
/// row measures, and per row: the sample-and-hold register (°C), the noise
/// generator and the stuck-fault and has-reading flags. A fresh row holds
/// the 0.0 °C placeholder that `ready()` guards against, no fault, and a
/// generator its sensor seeds.
struct SensorColumns {
  /// `truth_row` is `n` contiguous true temperatures (°C), read at each
  /// sample: a fleet's die-temperature row, or a standalone rig's own cell.
  SensorColumns(std::size_t n, const SensorParams& sensor_params, const double* truth_row);

  const SensorParams params;
  const double* const truth;
  std::vector<double> last_degc;
  std::vector<Rng> rng;
  std::vector<std::uint8_t> stuck;
  std::vector<std::uint8_t> has_reading;

  /// Every column, once (see common/columns.hpp).
  static auto columns(auto& g) { return std::tie(g.last_degc, g.rng, g.stuck, g.has_reading); }
  [[nodiscard]] std::size_t memory_bytes() const { return column_bytes(columns(*this)); }
};

/// One sensor: a view onto row `slot` of a SensorColumns.
class ThermalSensor {
 public:
  /// Seeds the row's noise generator with `rng`.
  ThermalSensor(SensorColumns& cols, std::size_t slot, Rng rng);

  // One sensor per row: a copy would be a second writer of the same register.
  ThermalSensor(const ThermalSensor&) = delete;
  ThermalSensor& operator=(const ThermalSensor&) = delete;

  /// Takes a new reading (called on the sampling schedule) and returns it.
  Celsius sample() {
    return Celsius{cols_.params.convert(cols_.truth[slot_], cols_.rng[slot_],
                                        cols_.last_degc[slot_], cols_.stuck[slot_],
                                        cols_.has_reading[slot_])};
  }

  /// Most recent reading without resampling (sample-and-hold).
  [[nodiscard]] Celsius last_reading() const { return Celsius{cols_.last_degc[slot_]}; }

  /// True once at least one real reading exists. Before that,
  /// `last_reading()` is the constructed 0.0 °C placeholder — callers that
  /// can observe the sensor pre-settle should check this first.
  [[nodiscard]] bool ready() const { return cols_.has_reading[slot_] != 0; }

  /// Fault injection: the sensor reports a frozen value until cleared. A
  /// fault injected before the first `sample()` does NOT freeze the 0.0 °C
  /// placeholder: the first sample still takes a real reading and sticks
  /// there (a frozen register holds its last conversion, not reset garbage).
  void inject_stuck_fault() { cols_.stuck[slot_] = 1; }
  void clear_fault() { cols_.stuck[slot_] = 0; }
  [[nodiscard]] bool faulted() const { return cols_.stuck[slot_] != 0; }

  [[nodiscard]] const SensorParams& params() const { return cols_.params; }

 private:
  SensorColumns& cols_;
  std::size_t slot_;
};

}  // namespace thermctl::hw
