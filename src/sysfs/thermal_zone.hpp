// Linux thermal framework: zones, trip points and cooling devices.
//
// The modern kernel generalizes thermal control exactly the way this paper
// proposed: sensors become *thermal zones*, actuators become *cooling
// devices* with an abstract 0..max_state scale (fans, DVFS and idle
// injection alike), and governors bind them through trip points. Building
// this surface gives the reproduction a present-day baseline (the step_wise
// governor, see core/step_wise.hpp) and shows the paper's thermal-control-
// array idea in its descendant form.
//
// Sysfs contract (subset):
//   /sys/class/thermal/thermal_zone<N>/type
//   /sys/class/thermal/thermal_zone<N>/temp            millidegrees
//   /sys/class/thermal/thermal_zone<N>/trip_point_<K>_temp
//   /sys/class/thermal/thermal_zone<N>/trip_point_<K>_type   passive|critical
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {

/// Abstract cooling device: anything with a 0..max_state throttle scale.
/// (PowerClampDevice implements this contract natively; adapters below wrap
/// the fan and DVFS paths.)
class CoolingDevice {
 public:
  virtual ~CoolingDevice() = default;
  [[nodiscard]] virtual long max_cooling_state() const = 0;
  [[nodiscard]] virtual long cooling_state() const = 0;
  virtual bool set_cooling_state(long state) = 0;
  [[nodiscard]] virtual std::string cooling_type() const = 0;
};

enum class TripType { kPassive, kCritical };

struct TripPoint {
  Celsius temperature{};
  TripType type = TripType::kPassive;
};

class ThermalZone {
 public:
  /// `read_temp` supplies the zone temperature (normally the node's hwmon
  /// sensor reading).
  ThermalZone(VirtualFs& fs, std::string_view root, int index, std::string type,
              std::function<Celsius()> read_temp);
  ~ThermalZone();

  ThermalZone(const ThermalZone&) = delete;
  ThermalZone& operator=(const ThermalZone&) = delete;

  /// Adds a trip point; returns its index. Publishes its two files as one
  /// mount in the zone's directory.
  std::size_t add_trip(TripPoint trip);
  [[nodiscard]] const std::vector<TripPoint>& trips() const { return trips_; }

  /// Binds a cooling device to this zone (not owned). Governors iterate
  /// bound devices.
  void bind(CoolingDevice* device);
  [[nodiscard]] const std::vector<CoolingDevice*>& bound_devices() const { return devices_; }

  [[nodiscard]] Celsius temperature() const { return read_temp_(); }

 private:
  /// One trip point's mount: its table, the names the table views and the
  /// owner its handlers read. Each lives on the heap, so the names and the
  /// owner stay put while mounted, however many trips follow.
  struct TripFiles {
    const ThermalZone* zone = nullptr;
    std::size_t index = 0;
    std::string temp_name;  // trip_point_<index>_temp
    std::string type_name;  // trip_point_<index>_type
    VirtualFs::Attr table[2];
    VirtualFs::Mount mount;
  };

  static const VirtualFs::Attr kFiles[2];  // temp, type

  VirtualFs& fs_;
  std::string type_;
  std::function<Celsius()> read_temp_;
  std::vector<TripPoint> trips_;
  std::vector<CoolingDevice*> devices_;
  VirtualFs::Mount mount_;
  std::vector<std::unique_ptr<TripFiles>> trip_files_;
};

/// Fan as a cooling device: state s maps to duty (s / max) * duty ceiling.
class FanCoolingAdapter final : public CoolingDevice {
 public:
  /// `write_duty` actuates the fan (normally HwmonDevice::write_pwm);
  /// `states` is the resolution of the throttle scale.
  FanCoolingAdapter(std::function<bool(DutyCycle)> write_duty, DutyCycle min_duty,
                    DutyCycle max_duty, long states = 10);

  [[nodiscard]] long max_cooling_state() const override { return states_; }
  [[nodiscard]] long cooling_state() const override { return state_; }
  bool set_cooling_state(long state) override;
  [[nodiscard]] std::string cooling_type() const override { return "fan"; }

 private:
  std::function<bool(DutyCycle)> write_duty_;
  DutyCycle min_duty_;
  DutyCycle max_duty_;
  long states_;
  long state_ = 0;
};

/// DVFS as a cooling device: state s = s-th P-state below nominal.
class DvfsCoolingAdapter final : public CoolingDevice {
 public:
  /// `set_khz` actuates (normally CpufreqPolicy::set_khz); `ladder_khz` is
  /// the frequency ladder in descending order.
  DvfsCoolingAdapter(std::function<bool(long)> set_khz, std::vector<long> ladder_khz);

  [[nodiscard]] long max_cooling_state() const override {
    return static_cast<long>(ladder_khz_.size()) - 1;
  }
  [[nodiscard]] long cooling_state() const override { return state_; }
  bool set_cooling_state(long state) override;
  [[nodiscard]] std::string cooling_type() const override { return "dvfs"; }

 private:
  std::function<bool(long)> set_khz_;
  std::vector<long> ladder_khz_;
  long state_ = 0;
};

}  // namespace thermctl::sysfs
