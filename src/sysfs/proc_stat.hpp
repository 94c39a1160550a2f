// /proc/stat binding.
//
// Utilization-driven daemons (CPUSPEED here; ondemand's ancestors generally)
// compute load by diffing the cumulative jiffy counters in /proc/stat. This
// binding publishes the node's counters in the kernel's format:
//
//   cpu  <user> <nice> <system> <idle> ...
//
// and provides the parse helper daemons use, so the in-band utilization path
// is file-shaped end to end, like every other surface in this stack.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sysfs/vfs.hpp"

namespace thermctl::sysfs {

struct JiffySnapshot {
  std::uint64_t busy = 0;
  std::uint64_t total = 0;
};

class ProcStat {
 public:
  /// Publishes `/proc/stat` in `fs` backed by the node's cumulative counter
  /// cells, read at every read of the file.
  ProcStat(VirtualFs& fs, const std::uint64_t* busy_jiffies, const std::uint64_t* total_jiffies);
  ~ProcStat();

  ProcStat(const ProcStat&) = delete;
  ProcStat& operator=(const ProcStat&) = delete;

  /// Reads and parses the attribute (what a daemon does every interval).
  [[nodiscard]] std::optional<JiffySnapshot> read(const VirtualFs& fs) const;

  /// Parses a /proc/stat cpu line; nullopt on malformed input.
  [[nodiscard]] static std::optional<JiffySnapshot> parse(const std::string& contents);

  static constexpr const char* kPath = "/proc/stat";

 private:
  static const VirtualFs::Attr kFiles[1];  // the "stat" file of /proc

  VirtualFs& fs_;
  const std::uint64_t* busy_;
  const std::uint64_t* total_;
  VirtualFs::Mount mount_;
};

}  // namespace thermctl::sysfs
