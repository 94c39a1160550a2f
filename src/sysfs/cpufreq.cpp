#include "sysfs/cpufreq.hpp"

#include <cstdlib>
#include <string>

namespace thermctl::sysfs {

CpufreqPolicy::CpufreqPolicy(VirtualFs& fs, std::string root, int index, hw::CpuDevice& cpu)
    : fs_(fs), dir_(root + "/cpu" + std::to_string(index) + "/cpufreq"), cpu_(cpu) {
  fs_.add_attribute(dir_ + "/scaling_available_frequencies", [this] {
    std::string out;
    for (std::size_t i = 0; i < cpu_.pstate_count(); ++i) {
      if (i > 0) {
        out += ' ';
      }
      out += std::to_string(to_khz(cpu_.pstates()[i].frequency));
    }
    return out;
  });
  fs_.add_attribute_long(dir_ + "/scaling_cur_freq",
                         [this] { return to_khz(cpu_.frequency()); });
  fs_.add_attribute_long(dir_ + "/cpuinfo_max_freq",
                         [this] { return to_khz(cpu_.max_frequency()); });
  fs_.add_attribute_long(dir_ + "/cpuinfo_min_freq",
                         [this] { return to_khz(cpu_.min_frequency()); });
  fs_.add_attribute(dir_ + "/scaling_governor", [] { return std::string{"userspace"}; });
  fs_.add_attribute_long(
      dir_ + "/scaling_setspeed", [this] { return to_khz(cpu_.frequency()); },
      [this](long khz) {
        if (khz <= 0) {
          return false;
        }
        cpu_.set_frequency(from_khz(khz));
        return true;
      });
  fs_.add_attribute(dir_ + "/stats/total_trans",
                    [this] { return std::to_string(cpu_.transition_count()); });
  // Governors hit these every sampling tick; cached handles skip the path
  // lookup. Handles are to our own attributes, dropped in the destructor.
  cur_freq_attr_ = fs_.open(dir_ + "/scaling_cur_freq");
  max_freq_attr_ = fs_.open(dir_ + "/cpuinfo_max_freq");
  min_freq_attr_ = fs_.open(dir_ + "/cpuinfo_min_freq");
  setspeed_attr_ = fs_.open(dir_ + "/scaling_setspeed");
}

CpufreqPolicy::~CpufreqPolicy() {
  for (const auto& name :
       {"/scaling_available_frequencies", "/scaling_cur_freq", "/cpuinfo_max_freq",
        "/cpuinfo_min_freq", "/scaling_governor", "/scaling_setspeed", "/stats/total_trans"}) {
    fs_.remove_attribute(dir_ + name);
  }
}

long CpufreqPolicy::cur_khz() const { return fs_.read_long(cur_freq_attr_).value_or(0); }

long CpufreqPolicy::max_khz() const { return fs_.read_long(max_freq_attr_).value_or(0); }

long CpufreqPolicy::min_khz() const { return fs_.read_long(min_freq_attr_).value_or(0); }

bool CpufreqPolicy::set_khz(long khz) { return fs_.write_long(setspeed_attr_, khz); }

std::vector<double> CpufreqPolicy::available_ghz() const {
  std::vector<double> out;
  const auto contents = fs_.read(dir_ + "/scaling_available_frequencies");
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
