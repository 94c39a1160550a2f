// RAPL powercap sysfs binding.
//
// Linux exposes the CPU's running-average-power-limit energy counters under
// /sys/class/powercap/intel-rapl:<N>/energy_uj. Counter-augmented
// controllers (the paper's future-work §5 item: "integration of hardware
// counter and data in our techniques to improve our prediction mechanisms")
// read package power from here instead of waiting for it to appear as
// temperature.
#pragma once

#include <cstdint>
#include <string_view>

#include "hw/cpu_device.hpp"
#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {

class RaplDomain {
 public:
  /// The counter's wrap range, mirroring the kernel's max_energy_range_uj
  /// attribute: energy_uj counts up to this value and then wraps to zero
  /// (~65.5 kJ, a real Intel package domain range — minutes of runtime at
  /// server power, so consumers MUST handle wrap; see energy_delta_uj).
  static constexpr std::uint64_t kMaxEnergyRangeUj = 65'532'610'987ULL;

  /// Mounts `<root>/intel-rapl:<index>` backed by `cpu`'s counters.
  RaplDomain(VirtualFs& fs, std::string_view root, int index, hw::CpuDevice& cpu);
  ~RaplDomain();

  RaplDomain(const RaplDomain&) = delete;
  RaplDomain& operator=(const RaplDomain&) = delete;

  /// Current accumulated energy in microjoules (the energy_uj attribute).
  /// Wraps to zero past max_energy_range_uj(), as the real counter does.
  [[nodiscard]] std::uint64_t energy_uj() const;

  /// Maximum value energy_uj() reaches before wrapping to zero.
  [[nodiscard]] std::uint64_t max_energy_range_uj() const { return kMaxEnergyRangeUj; }

  /// Wrap-correct delta between two energy_uj() readings taken `prev` then
  /// `cur`: assumes at most one wrap of a counter whose maximum value is
  /// `range` (the kernel convention: the counter holds values in
  /// [0, range] and wraps max → 0).
  [[nodiscard]] static std::uint64_t energy_delta_uj(std::uint64_t prev, std::uint64_t cur,
                                                     std::uint64_t range = kMaxEnergyRangeUj) {
    return cur >= prev ? cur - prev : cur + (range - prev) + 1;
  }

  /// APERF/MPERF exposed alongside (a simulation convenience; real systems
  /// read these via MSRs, but the semantic content is identical).
  [[nodiscard]] std::uint64_t aperf() const;
  [[nodiscard]] std::uint64_t mperf() const;

 private:
  // The domain directory's files in name order; the enum indexes kFiles.
  enum File : std::uint8_t { kAperf, kEnergyUj, kMaxRange, kMperf, kName, kFileCount };
  static const VirtualFs::Attr kFiles[kFileCount];

  /// Reads one of our counter files through its handle.
  [[nodiscard]] std::uint64_t read_counter(File file) const;

  VirtualFs& fs_;
  hw::CpuDevice& cpu_;
  VirtualFs::Mount mount_;
};

}  // namespace thermctl::sysfs
