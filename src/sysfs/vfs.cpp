#include "sysfs/vfs.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <mutex>
#include <set>

#include "common/assert.hpp"

namespace thermctl::sysfs {

namespace {

/// One process-wide copy of each distinct directory. Every node mounts the
/// same few directories, and rigs are built concurrently on runner threads,
/// hence the lock. Set nodes never move, so the returned pointer is stable.
const std::string* intern(std::string_view dir) {
  static std::mutex mu;
  static std::set<std::string, std::less<>> dirs;
  const std::lock_guard<std::mutex> lock{mu};
  auto it = dirs.find(dir);
  if (it == dirs.end()) {
    it = dirs.emplace(dir).first;
  }
  return &*it;
}

std::optional<long> parse_long(const std::string& text) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str()) {
    return std::nullopt;
  }
  return v;
}

/// Splits an attribute path at its last '/' into (directory, file name).
std::pair<std::string_view, std::string_view> split(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) {
    return {{}, path};
  }
  return {path.substr(0, slash), path.substr(slash + 1)};
}

/// What a null, stale or out-of-range handle resolves to: no handlers, so
/// every access fails closed.
constexpr VirtualFs::Attr kNoFile{};

}  // namespace

std::pair<std::vector<std::uint32_t>::const_iterator, std::vector<std::uint32_t>::const_iterator>
VirtualFs::mounts_at(std::string_view dir) const {
  const auto by_dir = [this](std::uint32_t s) -> std::string_view { return *slots_[s].dir; };
  return {std::lower_bound(index_.begin(), index_.end(), dir,
                           [&](std::uint32_t s, std::string_view d) { return by_dir(s) < d; }),
          std::upper_bound(index_.begin(), index_.end(), dir,
                           [&](std::string_view d, std::uint32_t s) { return d < by_dir(s); })};
}

const VirtualFs::Attr* VirtualFs::find_file(std::uint32_t slot, std::string_view name) const {
  const Slot& s = slots_[slot];
  const Attr* end = s.table + s.size;
  const Attr* it = std::lower_bound(s.table, end, name,
                                    [](const Attr& a, std::string_view n) { return a.name < n; });
  return it == end || it->name != name ? nullptr : it;
}

VirtualFs::Mount VirtualFs::mount(std::string_view dir, std::span<const Attr> table, void* owner) {
  THERMCTL_ASSERT(dir.empty() || (dir.front() == '/' && dir.back() != '/'),
                  "mount directory must be absolute");
  THERMCTL_ASSERT(valid_table(table), "mount table must be name-sorted files with handlers");
  if (slots_.empty()) {
    // A node mounts six directories (cpufreq and its stats, hwmon,
    // powercap, thermal, /proc); start with room for exactly those.
    slots_.reserve(6);
    index_.reserve(6);
  }
  // Names are files, so a path can only collide within its own directory.
  const auto [first, last] = mounts_at(dir);
  for (auto it = first; it != last; ++it) {
    for (const Attr& a : table) {
      THERMCTL_ASSERT(find_file(*it, a.name) == nullptr, "attribute already registered");
    }
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  THERMCTL_ASSERT(slot != kNone, "mount slots exhausted");
  const auto at = last - index_.begin();  // after any mounts of the same directory
  slots_.push_back(
      Slot{intern(dir), table.data(), static_cast<std::uint32_t>(table.size()), owner});
  index_.insert(index_.begin() + at, slot);
  return Mount{slot};
}

void VirtualFs::unmount(Mount m) {
  if (m.slot_ >= slots_.size() || slots_[m.slot_].size == 0) {
    return;
  }
  Slot& s = slots_[m.slot_];
  const auto [first, last] = mounts_at(*s.dir);
  index_.erase(std::find(first, last, m.slot_));
  // Retire rather than free: handles name this slot. An empty table makes
  // every stale access fail closed, and a re-mount takes a fresh slot, so
  // it can never alias the old one.
  s = Slot{s.dir, nullptr, 0, nullptr};
}

VirtualFs::DeviceDir& VirtualFs::DeviceDir::operator+=(std::string_view sub) {
  THERMCTL_ASSERT(sub.size() <= kCapacity - size_, "device directory too long");
  std::copy(sub.begin(), sub.end(), text_ + size_);
  size_ += sub.size();
  return *this;
}

VirtualFs::DeviceDir VirtualFs::device_dir(std::string_view root, std::string_view leaf,
                                           int index) {
  char number[16];
  const auto [end, ec] = std::to_chars(number, number + sizeof number, index);
  THERMCTL_ASSERT(ec == std::errc{}, "device index fits its buffer");
  DeviceDir dir;
  dir += root;
  dir += leaf;
  dir += std::string_view{number, static_cast<std::size_t>(end - number)};
  return dir;
}

const std::string& VirtualFs::directory(Mount m) const {
  THERMCTL_ASSERT(m.slot_ < slots_.size() && slots_[m.slot_].size != 0,
                  "directory of a live mount");
  return *slots_[m.slot_].dir;
}

VirtualFs::Handle VirtualFs::open(std::string_view path) const {
  const auto [dir, name] = split(path);
  const auto [first, last] = mounts_at(dir);
  for (auto it = first; it != last; ++it) {
    if (const Attr* a = find_file(*it, name)) {
      return Handle{*it, static_cast<std::uint32_t>(a - slots_[*it].table)};
    }
  }
  return Handle{};
}

bool VirtualFs::exists(std::string_view path) const { return static_cast<bool>(open(path)); }

std::optional<std::string> VirtualFs::read(std::string_view path) const {
  return read(open(path));
}

std::optional<long> VirtualFs::read_long(std::string_view path) const {
  return read_long(open(path));
}

bool VirtualFs::write(std::string_view path, const std::string& value) {
  return write(open(path), value);
}

bool VirtualFs::write_long(std::string_view path, long value) {
  return write_long(open(path), value);
}

std::pair<const VirtualFs::Attr&, void*> VirtualFs::resolve(Handle h) const {
  // A retired slot has size 0, so this also turns away stale handles.
  if (h.slot_ >= slots_.size() || h.entry_ >= slots_[h.slot_].size) {
    return {kNoFile, nullptr};
  }
  const Slot& s = slots_[h.slot_];
  return {s.table[h.entry_], s.owner};
}

std::optional<std::string> VirtualFs::read(Handle h) const {
  const auto [a, owner] = resolve(h);
  if (a.read != nullptr) {
    return a.read(owner);
  }
  if (a.read_long != nullptr) {
    return std::to_string(a.read_long(owner));
  }
  return std::nullopt;
}

std::optional<long> VirtualFs::read_long(Handle h) const {
  const auto [a, owner] = resolve(h);
  if (a.read_long != nullptr) {
    return a.read_long(owner);
  }
  if (a.read != nullptr) {
    return parse_long(a.read(owner));
  }
  return std::nullopt;
}

bool VirtualFs::write(Handle h, const std::string& value) {
  const auto [a, owner] = resolve(h);
  if (a.write != nullptr) {
    return a.write(owner, value);
  }
  if (a.write_long != nullptr) {
    const std::optional<long> v = parse_long(value);
    return v.has_value() && a.write_long(owner, *v);
  }
  return false;
}

bool VirtualFs::write_long(Handle h, long value) {
  const auto [a, owner] = resolve(h);
  if (a.write_long != nullptr) {
    return a.write_long(owner, value);
  }
  return a.write != nullptr && a.write(owner, std::to_string(value));
}

std::vector<std::string> VirtualFs::list(std::string_view dir_prefix) const {
  std::string prefix{dir_prefix};
  if (prefix.empty() || prefix.back() != '/') {
    prefix += '/';
  }
  // File names hold no '/', so a path is under the prefix exactly when its
  // directory plus '/' is.
  std::vector<std::string> out;
  for (const std::uint32_t slot : index_) {
    const Slot& s = slots_[slot];
    const std::string dir = *s.dir + '/';
    if (dir.starts_with(prefix)) {
      for (const Attr& a : std::span{s.table, s.size}) {
        out.push_back(dir + std::string{a.name});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace thermctl::sysfs
