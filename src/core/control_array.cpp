#include "core/control_array.hpp"

#include <cmath>
#include <limits>

namespace thermctl::core {

ThermalControlArray::ThermalControlArray(std::span<const double> available_modes, std::size_t n,
                                         PolicyParam pp)
    : modes_(available_modes.data()),
      m_(static_cast<std::uint16_t>(available_modes.size())),
      n_(static_cast<std::uint16_t>(n)),
      np_(0),
      pp_(0) {
  THERMCTL_ASSERT(!available_modes.empty(), "need at least one physical mode");
  THERMCTL_ASSERT(n >= 2, "control array needs at least two cells");
  THERMCTL_ASSERT(available_modes.size() <= std::numeric_limits<std::uint16_t>::max() &&
                      n <= std::numeric_limits<std::uint16_t>::max(),
                  "control array holds at most 65535 modes and cells");
  set_policy(pp);
}

std::size_t ThermalControlArray::eq1_np(PolicyParam pp, std::size_t n) {
  const double num = static_cast<double>(pp.value - PolicyParam::kMin) *
                     static_cast<double>(n - 1);
  const double den = static_cast<double>(PolicyParam::kMax - PolicyParam::kMin);
  return static_cast<std::size_t>(std::floor(num / den)) + 1;
}

void ThermalControlArray::set_policy(PolicyParam pp) {
  const std::size_t np = eq1_np(pp, n_);
  THERMCTL_ASSERT(np >= 1 && np <= n_, "Eq. (1) produced an out-of-range n_p");
  np_ = static_cast<std::uint16_t>(np);
  pp_ = static_cast<std::uint16_t>(pp.value);
}

}  // namespace thermctl::core
