#include "sysfs/ipmi.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace thermctl::sysfs {

BmcEndpoint::BmcEndpoint(std::span<const Sensor> sensors, void* owner, FanOverride fan_override)
    : sensors_(sensors), owner_(owner), fan_override_(fan_override) {
  THERMCTL_ASSERT(sensors.size() <= 255, "sensor repository full");
  for (const Sensor& s : sensors) {
    THERMCTL_ASSERT(s.read != nullptr, "sensor needs a read function");
  }
}

IpmiCompletion BmcEndpoint::get_sensor_reading(std::uint8_t sensor, SensorReading& out) const {
  if (!reachable_) {
    return IpmiCompletion::kDestinationUnavailable;
  }
  if (sensor == 0 || sensor > sensors_.size()) {
    return IpmiCompletion::kInvalidSensor;
  }
  const Sensor& s = sensors_[sensor - 1];
  out.value = s.read(owner_);
  out.unit = s.unit;
  return IpmiCompletion::kOk;
}

std::vector<std::pair<std::uint8_t, std::string>> BmcEndpoint::list_sensors() const {
  std::vector<std::pair<std::uint8_t, std::string>> out;
  out.reserve(sensors_.size());
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    out.emplace_back(static_cast<std::uint8_t>(i + 1), sensors_[i].name);
  }
  return out;
}

IpmiCompletion BmcEndpoint::set_fan_override(std::optional<DutyCycle> duty) {
  if (!reachable_) {
    return IpmiCompletion::kDestinationUnavailable;
  }
  if (fan_override_ == nullptr) {
    return IpmiCompletion::kInvalidCommand;
  }
  fan_override_(owner_, duty);
  return IpmiCompletion::kOk;
}

void IpmiNetwork::attach(int node_id, BmcEndpoint* bmc) {
  THERMCTL_ASSERT(bmc != nullptr, "cannot attach null BMC");
  if (endpoints_.empty() || endpoints_.back().id < node_id) {
    endpoints_.push_back(Endpoint{node_id, bmc});
    return;
  }
  const auto at = std::lower_bound(endpoints_.begin(), endpoints_.end(), node_id,
                                   [](const Endpoint& e, int id) { return e.id < id; });
  THERMCTL_ASSERT(at->id != node_id, "node id already attached");
  endpoints_.insert(at, Endpoint{node_id, bmc});
}

BmcEndpoint* IpmiNetwork::find(int node_id) const {
  const auto at = std::lower_bound(endpoints_.begin(), endpoints_.end(), node_id,
                                   [](const Endpoint& e, int id) { return e.id < id; });
  return at == endpoints_.end() || at->id != node_id ? nullptr : at->bmc;
}

IpmiCompletion IpmiNetwork::get_sensor_reading(int node_id, std::uint8_t sensor,
                                               SensorReading& out) const {
  BmcEndpoint* bmc = find(node_id);
  return bmc == nullptr ? IpmiCompletion::kDestinationUnavailable
                        : bmc->get_sensor_reading(sensor, out);
}

IpmiCompletion IpmiNetwork::set_fan_override(int node_id, std::optional<DutyCycle> duty) {
  BmcEndpoint* bmc = find(node_id);
  return bmc == nullptr ? IpmiCompletion::kDestinationUnavailable : bmc->set_fan_override(duty);
}

std::vector<int> IpmiNetwork::nodes() const {
  std::vector<int> out;
  out.reserve(endpoints_.size());
  for (const Endpoint& e : endpoints_) {
    out.push_back(e.id);
  }
  return out;
}

}  // namespace thermctl::sysfs
