// Trend statistics.
//
// The Type I/II/III phase classifier reads a series' trend from here.
#pragma once

#include <span>

namespace thermctl {

/// Ordinary least-squares slope of y over x index (per-sample trend). Returns
/// 0 for fewer than two samples. Used by the Type I/II/III phase classifier.
[[nodiscard]] double slope(std::span<const double> ys, double dx = 1.0);

}  // namespace thermctl
