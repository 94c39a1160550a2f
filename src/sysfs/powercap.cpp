#include "sysfs/powercap.hpp"

#include <string>

namespace thermctl::sysfs {

constexpr VirtualFs::Attr RaplDomain::kFiles[kFileCount] = {
    {.name = "aperf",
     .read = [](const void* d) {
       return std::to_string(static_cast<const RaplDomain*>(d)->cpu_.aperf());
     }},
    {.name = "energy_uj",
     .read = [](const void* d) {
       return std::to_string(static_cast<const RaplDomain*>(d)->cpu_.energy_uj() %
                             (kMaxEnergyRangeUj + 1));
     }},
    {.name = "max_energy_range_uj",
     .read = [](const void*) { return std::to_string(kMaxEnergyRangeUj); }},
    {.name = "mperf",
     .read = [](const void* d) {
       return std::to_string(static_cast<const RaplDomain*>(d)->cpu_.mperf());
     }},
    {.name = "name", .read = [](const void*) { return std::string{"package-0"}; }},
};

RaplDomain::RaplDomain(VirtualFs& fs, std::string_view root, int index, hw::CpuDevice& cpu)
    : fs_(fs), cpu_(cpu) {
  static_assert(VirtualFs::valid_table(kFiles));
  static_assert(kFiles[kAperf].name == "aperf" && kFiles[kEnergyUj].name == "energy_uj" &&
                kFiles[kMperf].name == "mperf");
  mount_ = fs_.mount(VirtualFs::device_dir(root, "/intel-rapl:", index), kFiles, this);
}

RaplDomain::~RaplDomain() { fs_.unmount(mount_); }

// Counter-augmented controllers read these every sample: the handles name
// our own files directly, with no path lookup.
std::uint64_t RaplDomain::read_counter(File file) const {
  const auto v = fs_.read(VirtualFs::handle(mount_, file));
  return v.has_value() ? std::stoull(*v) : 0;
}

std::uint64_t RaplDomain::energy_uj() const { return read_counter(kEnergyUj); }

std::uint64_t RaplDomain::aperf() const { return read_counter(kAperf); }

std::uint64_t RaplDomain::mperf() const { return read_counter(kMperf); }

}  // namespace thermctl::sysfs
