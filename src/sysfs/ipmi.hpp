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
#include <functional>
#include <optional>
#include <string>
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

/// The node-side BMC endpoint.
class BmcEndpoint {
 public:
  using SensorFn = std::function<double()>;
  using FanOverrideFn = std::function<void(std::optional<DutyCycle>)>;

  /// Registers a sensor in the repository; returns its sensor number
  /// (numbers run 1, 2, ... in registration order).
  std::uint8_t add_sensor(std::string name, std::string unit, SensorFn read);

  /// Installs the fan-override hook (nullopt duty = release override).
  void set_fan_override_handler(FanOverrideFn fn) { fan_override_ = std::move(fn); }

  IpmiCompletion get_sensor_reading(std::uint8_t sensor, SensorReading& out) const;
  [[nodiscard]] std::vector<std::pair<std::uint8_t, std::string>> list_sensors() const;

  /// "Set fan speed override" OEM command.
  IpmiCompletion set_fan_override(std::optional<DutyCycle> duty);

  /// Marks the endpoint unreachable (powered off BMC / network partition).
  void set_reachable(bool reachable) { reachable_ = reachable; }
  [[nodiscard]] bool reachable() const { return reachable_; }

 private:
  struct Sensor {
    std::string name;
    std::string unit;
    SensorFn read;
  };
  // Sensor number n lives at sensors_[n - 1]: registration order is number
  // order, so a lookup is an index.
  std::vector<Sensor> sensors_;
  FanOverrideFn fan_override_;
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
