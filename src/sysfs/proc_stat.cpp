#include "sysfs/proc_stat.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/assert.hpp"

namespace thermctl::sysfs {

constexpr VirtualFs::Attr ProcStat::kFiles[1] = {
    {.name = "stat",
     .read = [](const void* p) {
       const auto* self = static_cast<const ProcStat*>(p);
       const std::uint64_t busy = *self->busy_;
       const std::uint64_t total = *self->total_;
       const std::uint64_t idle = total >= busy ? total - busy : 0;
       // Kernel layout: user nice system idle iowait irq softirq. We fold all
       // busy time into "user" and report zeros elsewhere — daemons sum the
       // busy columns and diff against idle, which this preserves exactly.
       char buf[128];
       std::snprintf(buf, sizeof buf, "cpu  %" PRIu64 " 0 0 %" PRIu64 " 0 0 0\n", busy, idle);
       return std::string{buf};
     }},
};

ProcStat::ProcStat(VirtualFs& fs, const std::uint64_t* busy_jiffies,
                   const std::uint64_t* total_jiffies)
    : fs_(fs), busy_(busy_jiffies), total_(total_jiffies) {
  static_assert(VirtualFs::valid_table(kFiles));
  THERMCTL_ASSERT(busy_ != nullptr && total_ != nullptr, "proc stat needs counter sources");
  mount_ = fs_.mount("/proc", kFiles, this);
}

ProcStat::~ProcStat() { fs_.unmount(mount_); }

std::optional<JiffySnapshot> ProcStat::parse(const std::string& contents) {
  std::uint64_t user = 0;
  std::uint64_t nice = 0;
  std::uint64_t system = 0;
  std::uint64_t idle = 0;
  if (std::sscanf(contents.c_str(), "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64, &user,
                  &nice, &system, &idle) != 4) {
    return std::nullopt;
  }
  JiffySnapshot snap;
  snap.busy = user + nice + system;
  snap.total = snap.busy + idle;
  return snap;
}

std::optional<JiffySnapshot> ProcStat::read(const VirtualFs& fs) const {
  const auto contents = fs.read(kPath);
  if (!contents.has_value()) {
    return std::nullopt;
  }
  return parse(*contents);
}

}  // namespace thermctl::sysfs
