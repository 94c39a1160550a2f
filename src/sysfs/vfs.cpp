#include "sysfs/vfs.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <unordered_set>

#include "common/assert.hpp"

namespace thermctl::sysfs {

namespace {

/// One process-wide copy of each distinct path. Every node registers the
/// same ~21 paths, and rigs are built concurrently on runner threads, hence
/// the lock. Set nodes never move, so the returned pointer is stable.
const std::string* intern(const std::string& path) {
  static std::mutex mu;
  static std::unordered_set<std::string> paths;
  const std::lock_guard<std::mutex> lock{mu};
  return &*paths.insert(path).first;
}

std::optional<long> parse_long(const std::string& text) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::vector<VirtualFs::Entry>::const_iterator VirtualFs::lower_bound(std::string_view path) const {
  return std::lower_bound(index_.begin(), index_.end(), path,
                          [](const Entry& e, std::string_view p) { return *e.path < p; });
}

const VirtualFs::Entry* VirtualFs::find(std::string_view path) const {
  auto it = lower_bound(path);
  return it == index_.end() || *it->path != path ? nullptr : &*it;
}

void VirtualFs::insert(const std::string& path, Attribute attr) {
  THERMCTL_ASSERT(!path.empty() && path.front() == '/', "attribute path must be absolute");
  const auto at = lower_bound(path);
  THERMCTL_ASSERT(at == index_.end() || *at->path != path, "attribute already registered");
  index_.insert(at, Entry{intern(path), &slots_.emplace_back(std::move(attr))});
}

void VirtualFs::add_attribute(const std::string& path, ReadFn read, WriteFn write) {
  THERMCTL_ASSERT(read || write, "attribute needs at least one handler");
  insert(path, TextHandlers{std::move(read), std::move(write)});
}

void VirtualFs::add_attribute_long(const std::string& path, LongReadFn read, LongWriteFn write) {
  THERMCTL_ASSERT(read || write, "attribute needs at least one handler");
  insert(path, LongHandlers{std::move(read), std::move(write)});
}

void VirtualFs::remove_attribute(const std::string& path) {
  const Entry* e = find(path);
  if (e == nullptr) {
    return;
  }
  // Clear rather than free: live handles keep a raw pointer to the slot.
  // Empty handlers make every stale access fail closed (nullopt / false),
  // and a re-registration at the same path takes a fresh slot, so it can
  // never alias the old address with new state — mixed string-path and
  // typed-handle access stays coherent.
  *e->attr = TextHandlers{};
  index_.erase(index_.begin() + (e - index_.data()));
}

bool VirtualFs::exists(const std::string& path) const { return find(path) != nullptr; }

std::optional<std::string> VirtualFs::read(const std::string& path) const {
  return read(open(path));
}

std::optional<long> VirtualFs::read_long(const std::string& path) const {
  return read_long(open(path));
}

bool VirtualFs::write(const std::string& path, const std::string& value) {
  return write(open(path), value);
}

bool VirtualFs::write_long(const std::string& path, long value) {
  return write_long(open(path), value);
}

VirtualFs::Handle VirtualFs::open(const std::string& path) const {
  const Entry* e = find(path);
  return e == nullptr ? Handle{} : Handle{e->attr};
}

std::optional<std::string> VirtualFs::read(Handle h) const {
  if (h.attr_ == nullptr) {
    return std::nullopt;
  }
  if (const auto* text = std::get_if<TextHandlers>(h.attr_)) {
    return text->read ? std::optional<std::string>{text->read()} : std::nullopt;
  }
  const auto& typed = std::get<LongHandlers>(*h.attr_);
  return typed.read ? std::optional<std::string>{std::to_string(typed.read())} : std::nullopt;
}

std::optional<long> VirtualFs::read_long(Handle h) const {
  if (h.attr_ != nullptr) {
    if (const auto* typed = std::get_if<LongHandlers>(h.attr_); typed != nullptr && typed->read) {
      return typed->read();
    }
  }
  const std::optional<std::string> text = read(h);
  return text.has_value() ? parse_long(*text) : std::nullopt;
}

bool VirtualFs::write(Handle h, const std::string& value) {
  if (h.attr_ == nullptr) {
    return false;
  }
  if (const auto* text = std::get_if<TextHandlers>(h.attr_)) {
    return text->write && text->write(value);
  }
  const auto& typed = std::get<LongHandlers>(*h.attr_);
  if (!typed.write) {
    return false;
  }
  const std::optional<long> v = parse_long(value);
  return v.has_value() && typed.write(*v);
}

bool VirtualFs::write_long(Handle h, long value) {
  if (h.attr_ != nullptr) {
    if (const auto* typed = std::get_if<LongHandlers>(h.attr_); typed != nullptr && typed->write) {
      return typed->write(value);
    }
  }
  return write(h, std::to_string(value));
}

std::vector<std::string> VirtualFs::list(const std::string& dir_prefix) const {
  std::string prefix = dir_prefix;
  if (prefix.empty() || prefix.back() != '/') {
    prefix += '/';
  }
  std::vector<std::string> out;
  // index_ is sorted by path; prefix range scan.
  for (auto it = lower_bound(prefix); it != index_.end() && it->path->starts_with(prefix); ++it) {
    out.push_back(*it->path);
  }
  return out;
}

}  // namespace thermctl::sysfs
