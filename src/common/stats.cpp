#include "common/stats.hpp"

namespace thermctl {

double slope(std::span<const double> ys, double dx) {
  if (ys.size() < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(ys.size());
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double x = static_cast<double>(i) * dx;
    sx += x;
    sy += ys[i];
    sxx += x * x;
    sxy += x * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    return 0.0;
  }
  return (n * sxy - sx * sy) / denom;
}

}  // namespace thermctl
