#include "sysfs/powerclamp.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

namespace thermctl::sysfs {

constexpr VirtualFs::Attr PowerClampDevice::kFiles[kFileCount] = {
    {.name = "cur_state",
     .read = [](const void* d) {
       return std::to_string(static_cast<long>(std::lround(
           static_cast<const PowerClampDevice*>(d)->cpu_.idle_injector().fraction() * 100.0)));
     },
     .write = [](void* d, const std::string& value) {
       auto* self = static_cast<PowerClampDevice*>(d);
       char* end = nullptr;
       const long state = std::strtol(value.c_str(), &end, 10);
       if (end == value.c_str() || state < 0 || state > self->max_state()) {
         return false;
       }
       self->cpu_.idle_injector().set_injection(static_cast<double>(state) / 100.0,
                                                self->cstate_);
       return true;
     }},
    {.name = "max_state",
     .read = [](const void* d) {
       return std::to_string(static_cast<const PowerClampDevice*>(d)->max_state());
     }},
    {.name = "type", .read = [](const void*) { return std::string{"intel_powerclamp"}; }},
};

PowerClampDevice::PowerClampDevice(VirtualFs& fs, std::string_view root, int index,
                                   hw::CpuDevice& cpu)
    : fs_(fs), cpu_(cpu), cstate_(cpu.idle_injector().cstate_count() - 1) {
  static_assert(VirtualFs::valid_table(kFiles));
  static_assert(kFiles[kCurState].name == "cur_state");
  mount_ = fs_.mount(VirtualFs::device_dir(root, "/cooling_device", index), kFiles, this);
}

PowerClampDevice::~PowerClampDevice() { fs_.unmount(mount_); }

long PowerClampDevice::max_state() const {
  return static_cast<long>(std::lround(cpu_.idle_injector().params().max_fraction * 100.0));
}

// Idle-injection controllers read and command cur_state every sample: the
// handle names our own file directly, with no path lookup.
long PowerClampDevice::cur_state() const {
  return fs_.read_long(VirtualFs::handle(mount_, kCurState)).value_or(0);
}

bool PowerClampDevice::set_cur_state(long state) {
  return fs_.write_long(VirtualFs::handle(mount_, kCurState), state);
}

}  // namespace thermctl::sysfs
