// The user policy parameter Pp.
//
// §3.2.2: "Since Pp reflects a relative degree of proactive control, we use
// integers within the range of [Pmin, Pmax], i.e., [1, 100] to specify Pp.
// Controls using larger Pp tend to be cost-oriented, while ones using smaller
// Pp tend to be temperature-oriented." A single Pp applied across all
// techniques is the paper's mechanism for *unifying* in-band and out-of-band
// control.
#pragma once

#include "common/assert.hpp"

namespace thermctl::core {

struct PolicyParam {
  static constexpr int kMin = 1;
  static constexpr int kMax = 100;

  int value = 50;

  constexpr PolicyParam() = default;
  bool operator==(const PolicyParam&) const = default;
  explicit PolicyParam(int v) : value(v) {
    THERMCTL_ASSERT(v >= kMin && v <= kMax, "Pp must be in [1, 100]");
  }

  /// Paper shorthand: aggressive (temperature-oriented) control.
  [[nodiscard]] static PolicyParam aggressive() { return PolicyParam{25}; }
  /// Moderate control (the paper's default in most experiments).
  [[nodiscard]] static PolicyParam moderate() { return PolicyParam{50}; }
  /// Weak (cost-oriented) control.
  [[nodiscard]] static PolicyParam weak() { return PolicyParam{75}; }
};

}  // namespace thermctl::core
