#include "sysfs/cpufreq.hpp"

#include <cstdlib>
#include <string>

namespace thermctl::sysfs {

constexpr VirtualFs::Attr CpufreqPolicy::kFiles[kFileCount] = {
    {.name = "cpuinfo_max_freq",
     .read_long = [](const void* p) {
       return to_khz(static_cast<const CpufreqPolicy*>(p)->cpu_.max_frequency());
     }},
    {.name = "cpuinfo_min_freq",
     .read_long = [](const void* p) {
       return to_khz(static_cast<const CpufreqPolicy*>(p)->cpu_.min_frequency());
     }},
    {.name = "scaling_available_frequencies",
     .read = [](const void* p) {
       const hw::CpuDevice& cpu = static_cast<const CpufreqPolicy*>(p)->cpu_;
       std::string out;
       for (std::size_t i = 0; i < cpu.pstate_count(); ++i) {
         if (i > 0) {
           out += ' ';
         }
         out += std::to_string(to_khz(cpu.pstates()[i].frequency));
       }
       return out;
     }},
    {.name = "scaling_cur_freq",
     .read_long = [](const void* p) {
       return to_khz(static_cast<const CpufreqPolicy*>(p)->cpu_.frequency());
     }},
    {.name = "scaling_governor", .read = [](const void*) { return std::string{"userspace"}; }},
    {.name = "scaling_setspeed",
     .read_long = [](const void* p) {
       return to_khz(static_cast<const CpufreqPolicy*>(p)->cpu_.frequency());
     },
     .write_long = [](void* p, long khz) {
       if (khz <= 0) {
         return false;
       }
       static_cast<CpufreqPolicy*>(p)->cpu_.set_frequency(from_khz(khz));
       return true;
     }},
};

constexpr VirtualFs::Attr CpufreqPolicy::kStatsFiles[1] = {
    {.name = "total_trans",
     .read = [](const void* p) {
       return std::to_string(static_cast<const CpufreqPolicy*>(p)->cpu_.transition_count());
     }},
};

CpufreqPolicy::CpufreqPolicy(VirtualFs& fs, std::string_view root, int index,
                             hw::CpuDevice& cpu)
    : fs_(fs), cpu_(cpu) {
  static_assert(VirtualFs::valid_table(kFiles) && VirtualFs::valid_table(kStatsFiles));
  static_assert(kFiles[kScalingCurFreq].name == "scaling_cur_freq" &&
                kFiles[kCpuinfoMaxFreq].name == "cpuinfo_max_freq" &&
                kFiles[kCpuinfoMinFreq].name == "cpuinfo_min_freq" &&
                kFiles[kScalingSetspeed].name == "scaling_setspeed" &&
                kFiles[kScalingAvailableFrequencies].name == "scaling_available_frequencies");
  VirtualFs::DeviceDir dir = VirtualFs::device_dir(root, "/cpu", index);
  dir += "/cpufreq";
  mount_ = fs_.mount(dir, kFiles, this);
  dir += "/stats";
  stats_mount_ = fs_.mount(dir, kStatsFiles, this);
}

CpufreqPolicy::~CpufreqPolicy() {
  fs_.unmount(stats_mount_);
  fs_.unmount(mount_);
}

// Governors hit these every sampling tick: the handles name our own files
// directly, with no path lookup.
long CpufreqPolicy::cur_khz() const {
  return fs_.read_long(VirtualFs::handle(mount_, kScalingCurFreq)).value_or(0);
}

long CpufreqPolicy::max_khz() const {
  return fs_.read_long(VirtualFs::handle(mount_, kCpuinfoMaxFreq)).value_or(0);
}

long CpufreqPolicy::min_khz() const {
  return fs_.read_long(VirtualFs::handle(mount_, kCpuinfoMinFreq)).value_or(0);
}

bool CpufreqPolicy::set_khz(long khz) {
  return fs_.write_long(VirtualFs::handle(mount_, kScalingSetspeed), khz);
}

std::vector<double> CpufreqPolicy::available_ghz() const {
  std::vector<double> out;
  const auto contents = fs_.read(VirtualFs::handle(mount_, kScalingAvailableFrequencies));
  if (!contents.has_value()) {
    return out;
  }
  const char* at = contents->c_str();
  for (;;) {
    char* end = nullptr;
    const long khz = std::strtol(at, &end, 10);
    if (end == at) {
      return out;
    }
    out.push_back(from_khz(khz).value());
    at = end;
  }
}

}  // namespace thermctl::sysfs
