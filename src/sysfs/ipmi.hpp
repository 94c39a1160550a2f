// IPMI-style out-of-band management channel.
//
// The paper's title promises *out-of-band* control; on server-class machines
// the canonical out-of-band path is the BMC's IPMI interface, which keeps
// working regardless of what the host OS or application is doing. This
// module models a small BMC: a sensor repository (SDR) readable by sensor
// number, fan-override commands, and a chassis power reading — message-based,
// with completion codes, so the rack-level example can monitor and actuate
// nodes without touching their in-band (sysfs) plane.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace thermctl::sysfs {

/// IPMI completion codes (subset).
enum class IpmiCompletion : std::uint8_t {
  kOk = 0x00,
  kInvalidSensor = 0xCB,
  kInvalidCommand = 0xC1,
  kDestinationUnavailable = 0xD3,
};

struct SensorReading {
  double value = 0.0;
  std::string unit;
};

/// The node-side BMC endpoint. Its sensor repository is a static table
/// published over an owner, the VirtualFs::Attr idiom: each Sensor is a
/// name, a unit and a plain function that reads the owner, so an endpoint
/// allocates nothing and a reading always reflects the owner's current
/// state. Sensor number n is table entry n - 1. The fan override is a plain
/// function over the same owner.
class BmcEndpoint {
 public:
  struct Sensor {
    std::string_view name;
    std::string_view unit;
    double (*read)(const void* owner) = nullptr;
  };
  /// Sets (duty) or releases (nullopt) the fan override on the owner.
  using FanOverride = void (*)(void* owner, std::optional<DutyCycle> duty);

  /// Publishes `sensors` (numbered 1, 2, ... in table order, at most 255,
  /// each with a read function) and `fan_override` (may be null), each
  /// called with `owner`. Neither the table nor the owner is copied: both
  /// must outlive the endpoint.
  BmcEndpoint(std::span<const Sensor> sensors, void* owner, FanOverride fan_override);

  IpmiCompletion get_sensor_reading(std::uint8_t sensor, SensorReading& out) const;
  [[nodiscard]] std::vector<std::pair<std::uint8_t, std::string>> list_sensors() const;

  /// "Set fan speed override" OEM command.
  IpmiCompletion set_fan_override(std::optional<DutyCycle> duty);

  /// Marks the endpoint unreachable (powered off BMC / network partition).
  void set_reachable(bool reachable) { reachable_ = reachable; }

 private:
  std::span<const Sensor> sensors_;
  void* owner_ = nullptr;
  FanOverride fan_override_ = nullptr;
  bool reachable_ = true;
};

/// The management network tying BMCs together, addressed by node id.
class IpmiNetwork {
 public:
  void attach(int node_id, BmcEndpoint* bmc);

  IpmiCompletion get_sensor_reading(int node_id, std::uint8_t sensor, SensorReading& out) const;
  IpmiCompletion set_fan_override(int node_id, std::optional<DutyCycle> duty);
  [[nodiscard]] std::vector<int> nodes() const;

 private:
  struct Endpoint {
    int id;
    BmcEndpoint* bmc;
  };
  [[nodiscard]] BmcEndpoint* find(int node_id) const;

  // Sorted by id. A cluster attaches ids in ascending order, which appends.
  std::vector<Endpoint> endpoints_;
};

}  // namespace thermctl::sysfs
