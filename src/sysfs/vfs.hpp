// Virtual sysfs attribute tree.
//
// On the paper's platform the in-band control plane is Linux sysfs: cpufreq
// exposes frequency knobs, hwmon exposes temperatures and PWM. The simulated
// node reproduces that layer as a tree of string-valued attributes so
// governors and tools interact with the "OS" the same way a real daemon
// would (read/write small text files), rather than poking C++ objects
// directly. Tests exercise the exact attribute grammar (e.g. millidegrees in
// temp*_input).
//
// The tree indexes directories, not attributes. A device mounts each of its
// directories once, with a name-sorted table of plain-function handlers
// over the device, so publishing a device costs one sorted insert per
// directory rather than one registration per attribute. Mounting a table is
// the only way to publish a file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace thermctl::sysfs {

class VirtualFs {
 public:
  /// One file of a mounted directory: its name and its handlers over the
  /// mount's owner. A file is text (read/write) or typed (read_long/
  /// write_long), never both; either handler of a pair may be null for
  /// read-only / write-only files. The text surface of a typed file is
  /// synthesized (std::to_string on read, strtol on write, non-numeric text
  /// rejected), so the sysfs grammar is the same either way; read_long/
  /// write_long on a typed file call its handlers directly.
  struct Attr {
    std::string_view name;  // a file name: non-empty, no '/'
    std::string (*read)(const void* owner) = nullptr;
    bool (*write)(void* owner, const std::string& value) = nullptr;
    long (*read_long)(const void* owner) = nullptr;
    bool (*write_long)(void* owner, long value) = nullptr;
  };

  /// What mount() requires of a table: names that are files, strictly
  /// sorted (so unique), each with a handler, and no file both text and
  /// typed. Devices static_assert it on their constexpr tables.
  static constexpr bool valid_table(std::span<const Attr> table) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      const Attr& a = table[i];
      const bool text = a.read != nullptr || a.write != nullptr;
      const bool typed = a.read_long != nullptr || a.write_long != nullptr;
      if (a.name.empty() || a.name.find('/') != std::string_view::npos || text == typed ||
          (i > 0 && !(table[i - 1].name < a.name))) {
        return false;
      }
    }
    return !table.empty();
  }

  /// Names one mount; unmount() with it. Null when default-constructed.
  class Mount {
   public:
    Mount() = default;

   private:
    friend class VirtualFs;
    explicit Mount(std::uint32_t slot) : slot_(slot) {}
    std::uint32_t slot_ = kNone;
  };

  /// Opaque cached handle to one attribute: (mount, table entry), resolved
  /// once with open() or handle(). Skips the per-access path lookup on the
  /// sampling hot path (controllers read temperatures every tick on up to
  /// 100k nodes). Unmounting invalidates the handle safely: a mount's slot
  /// is retired in place and never reused, so a stale handle reads nullopt /
  /// writes false rather than dangling — and if the path is mounted again,
  /// it lands in a fresh slot, so old handles can never observe it; callers
  /// re-open() to see the new attribute.
  class Handle {
   public:
    Handle() = default;
    [[nodiscard]] explicit operator bool() const { return slot_ != kNone; }

   private:
    friend class VirtualFs;
    Handle(std::uint32_t slot, std::uint32_t entry) : slot_(slot), entry_(entry) {}
    std::uint32_t slot_ = kNone;
    std::uint32_t entry_ = 0;
  };

  VirtualFs() = default;
  // Mounts hold their owners' addresses; a copy would alias them.
  VirtualFs(const VirtualFs&) = delete;
  VirtualFs& operator=(const VirtualFs&) = delete;

  /// Publishes `table` (see valid_table) as the files of directory `dir`
  /// (absolute, no trailing '/'), each handler called with `owner`. Neither
  /// the table nor the owner is copied: both must outlive the mount. A
  /// directory may hold several mounts; a name may not repeat within it.
  Mount mount(std::string_view dir, std::span<const Attr> table, void* owner);

  /// Withdraws a mount's files; its handles fail closed from now on. A null
  /// or already-unmounted token is ignored.
  void unmount(Mount m);

  /// The handle of entry `entry` of a mount's table, with no lookup. A
  /// device names its own files this way; like any handle it fails closed
  /// once the mount is gone (or if `entry` is past the table).
  [[nodiscard]] static Handle handle(Mount m, std::size_t entry) {
    return Handle{m.slot_, static_cast<std::uint32_t>(entry)};
  }

  /// A device's mount directory, assembled on the stack: mount() interns
  /// its text, so building one allocates nothing. `+=` appends a
  /// subdirectory.
  class DeviceDir {
   public:
    DeviceDir& operator+=(std::string_view sub);
    operator std::string_view() const { return {text_, size_}; }

   private:
    friend class VirtualFs;
    DeviceDir() = default;
    // Room for any sysfs directory a device mounts (the deepest a node
    // mounts, "/sys/devices/system/cpu/cpu0/cpufreq/stats", is 42).
    static constexpr std::size_t kCapacity = 128;
    char text_[kCapacity]{};
    std::size_t size_ = 0;
  };

  /// "<root><leaf><index>", the directory of a numbered device (e.g.
  /// "/sys/class/hwmon" "/hwmon" 0).
  static DeviceDir device_dir(std::string_view root, std::string_view leaf, int index);

  /// The directory a live mount was mounted at.
  [[nodiscard]] const std::string& directory(Mount m) const;

  [[nodiscard]] bool exists(std::string_view path) const;

  /// Reads an attribute; nullopt if missing or write-only (-EACCES).
  [[nodiscard]] std::optional<std::string> read(std::string_view path) const;

  /// Reads and parses as a long integer; nullopt on missing/parse failure.
  [[nodiscard]] std::optional<long> read_long(std::string_view path) const;

  /// Writes an attribute; false if missing, read-only, or rejected.
  bool write(std::string_view path, const std::string& value);
  bool write_long(std::string_view path, long value);

  /// Resolves `path` once; a null handle if the attribute is missing.
  [[nodiscard]] Handle open(std::string_view path) const;

  /// Handle-based accessors: identical semantics to the path forms (same
  /// handlers, same text grammar), minus the lookup.
  [[nodiscard]] std::optional<std::string> read(Handle h) const;
  [[nodiscard]] std::optional<long> read_long(Handle h) const;
  bool write(Handle h, const std::string& value);
  bool write_long(Handle h, long value);

  /// All attribute paths under a directory prefix, sorted.
  [[nodiscard]] std::vector<std::string> list(std::string_view dir_prefix) const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Slot {
    const std::string* dir = nullptr;  // interned: one copy per directory per process
    const Attr* table = nullptr;
    std::uint32_t size = 0;  // 0 once unmounted
    void* owner = nullptr;
  };

  /// The file a handle names and its owner; a file with no handlers for a
  /// null, stale or out-of-range handle.
  [[nodiscard]] std::pair<const Attr&, void*> resolve(Handle h) const;
  /// The index_ range of the mounts at `dir`.
  [[nodiscard]] std::pair<std::vector<std::uint32_t>::const_iterator,
                          std::vector<std::uint32_t>::const_iterator>
  mounts_at(std::string_view dir) const;
  /// `name` in slot `slot`'s table, or null.
  [[nodiscard]] const Attr* find_file(std::uint32_t slot, std::string_view name) const;

  // Every mount ever made, by slot; a Handle or Mount names a slot. Slots
  // are retired in place, never reused, so the graveyard is bounded by the
  // number of unmounts (device unpublish events), not by accesses.
  std::vector<Slot> slots_;
  // Live slots sorted by directory: binary-search lookup.
  std::vector<std::uint32_t> index_;
};

}  // namespace thermctl::sysfs
