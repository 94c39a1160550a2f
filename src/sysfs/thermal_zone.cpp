#include "sysfs/thermal_zone.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sysfs/hwmon.hpp"

namespace thermctl::sysfs {

// Temperatures are typed files in millidegrees, quantized as hwmon's are.
constexpr VirtualFs::Attr ThermalZone::kFiles[2] = {
    {.name = "temp",
     .read_long = [](const void* z) {
       return HwmonDevice::to_millidegrees(static_cast<const ThermalZone*>(z)->read_temp_());
     }},
    {.name = "type",
     .read = [](const void* z) { return static_cast<const ThermalZone*>(z)->type_; }},
};

ThermalZone::ThermalZone(VirtualFs& fs, std::string_view root, int index, std::string type,
                         std::function<Celsius()> read_temp)
    : fs_(fs), type_(std::move(type)), read_temp_(std::move(read_temp)) {
  static_assert(VirtualFs::valid_table(kFiles));
  THERMCTL_ASSERT(static_cast<bool>(read_temp_), "zone needs a temperature source");
  mount_ = fs_.mount(VirtualFs::device_dir(root, "/thermal_zone", index), kFiles, this);
}

ThermalZone::~ThermalZone() {
  for (const auto& files : trip_files_) {
    fs_.unmount(files->mount);
  }
  fs_.unmount(mount_);
}

std::size_t ThermalZone::add_trip(TripPoint trip) {
  const std::size_t index = trips_.size();
  trips_.push_back(trip);
  TripFiles& files = *trip_files_.emplace_back(std::make_unique<TripFiles>());
  files.zone = this;
  files.index = index;
  const std::string base = "trip_point_" + std::to_string(index);
  files.temp_name = base + "_temp";
  files.type_name = base + "_type";
  files.table[0] = {.name = files.temp_name, .read_long = [](const void* f) {
                      const auto& tf = *static_cast<const TripFiles*>(f);
                      return HwmonDevice::to_millidegrees(tf.zone->trips_[tf.index].temperature);
                    }};
  files.table[1] = {.name = files.type_name, .read = [](const void* f) {
                      const auto& tf = *static_cast<const TripFiles*>(f);
                      return std::string{tf.zone->trips_[tf.index].type == TripType::kCritical
                                             ? "critical"
                                             : "passive"};
                    }};
  files.mount = fs_.mount(fs_.directory(mount_), files.table, &files);
  return index;
}

void ThermalZone::bind(CoolingDevice* device) {
  THERMCTL_ASSERT(device != nullptr, "cannot bind null cooling device");
  devices_.push_back(device);
}

FanCoolingAdapter::FanCoolingAdapter(std::function<bool(DutyCycle)> write_duty,
                                     DutyCycle min_duty, DutyCycle max_duty, long states)
    : write_duty_(std::move(write_duty)),
      min_duty_(min_duty),
      max_duty_(max_duty),
      states_(states) {
  THERMCTL_ASSERT(static_cast<bool>(write_duty_), "fan adapter needs an actuator");
  THERMCTL_ASSERT(states_ >= 1, "need at least one cooling state");
  THERMCTL_ASSERT(max_duty_.percent() > min_duty_.percent(), "duty range inverted");
}

bool FanCoolingAdapter::set_cooling_state(long state) {
  if (state < 0 || state > states_) {
    return false;
  }
  const double frac = static_cast<double>(state) / static_cast<double>(states_);
  const double duty =
      min_duty_.percent() + frac * (max_duty_.percent() - min_duty_.percent());
  if (!write_duty_(DutyCycle{duty})) {
    return false;
  }
  state_ = state;
  return true;
}

DvfsCoolingAdapter::DvfsCoolingAdapter(std::function<bool(long)> set_khz,
                                       std::vector<long> ladder_khz)
    : set_khz_(std::move(set_khz)), ladder_khz_(std::move(ladder_khz)) {
  THERMCTL_ASSERT(static_cast<bool>(set_khz_), "dvfs adapter needs an actuator");
  THERMCTL_ASSERT(ladder_khz_.size() >= 2, "need at least two frequencies");
  THERMCTL_ASSERT(std::is_sorted(ladder_khz_.rbegin(), ladder_khz_.rend()),
                  "ladder must be descending");
}

bool DvfsCoolingAdapter::set_cooling_state(long state) {
  if (state < 0 || state > max_cooling_state()) {
    return false;
  }
  if (!set_khz_(ladder_khz_[static_cast<std::size_t>(state)])) {
    return false;
  }
  state_ = state;
  return true;
}

}  // namespace thermctl::sysfs
