// Virtual sysfs attribute tree.
//
// On the paper's platform the in-band control plane is Linux sysfs: cpufreq
// exposes frequency knobs, hwmon exposes temperatures and PWM. The simulated
// node reproduces that layer as a tree of string-valued attributes so
// governors and tools interact with the "OS" the same way a real daemon
// would (read/write small text files), rather than poking C++ objects
// directly. Tests exercise the exact attribute grammar (e.g. millidegrees in
// temp*_input).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace thermctl::sysfs {

/// Read handler: produces the attribute's current contents.
using ReadFn = std::function<std::string()>;
/// Write handler: consumes a value; returns false on rejection (-EINVAL).
using WriteFn = std::function<bool(const std::string&)>;
/// Typed handlers for numeric attributes (kernel-style integer files):
/// the text surface is synthesized from these, and handle-based
/// read_long/write_long bypass the string round-trip entirely.
using LongReadFn = std::function<long()>;
using LongWriteFn = std::function<bool(long)>;

class VirtualFs {
 private:
  // An attribute holds either a text handler pair or a typed pair, never
  // both: the text surface of a typed (add_attribute_long) attribute is
  // rendered at call time rather than stored as wrapper closures.
  struct TextHandlers {
    ReadFn read;
    WriteFn write;
  };
  struct LongHandlers {
    LongReadFn read;
    LongWriteFn write;
  };
  using Attribute = std::variant<TextHandlers, LongHandlers>;

 public:
  /// Opaque cached handle to one attribute, resolved once with open().
  /// Skips the per-access path lookup on the sampling hot path (controllers
  /// read temperatures every tick on up to 100k nodes). Removing the
  /// attribute *invalidates* the handle safely: the attribute's slot is
  /// cleared in place and never reused, so a stale handle reads nullopt /
  /// writes false rather than dangling — and if the path is later
  /// re-registered with new handlers, they land in a fresh slot, so old
  /// handles can never observe them; callers re-open() to see the new
  /// attribute.
  class Handle {
   public:
    Handle() = default;
    [[nodiscard]] explicit operator bool() const { return attr_ != nullptr; }

   private:
    friend class VirtualFs;
    explicit Handle(const Attribute* attr) : attr_(attr) {}
    const Attribute* attr_ = nullptr;
  };

  VirtualFs() = default;
  // Handles and the index point into slots_; a copy would alias them.
  VirtualFs(const VirtualFs&) = delete;
  VirtualFs& operator=(const VirtualFs&) = delete;

  /// Registers an attribute at `path` (e.g. "/sys/class/hwmon/hwmon0/temp1_input").
  /// Either handler may be null for write-only / read-only attributes.
  void add_attribute(const std::string& path, ReadFn read, WriteFn write = nullptr);

  /// Registers a numeric attribute from typed handlers. The string surface
  /// (read()/write(), path or handle) is synthesized — reads render with
  /// std::to_string, writes parse with strtol and reject non-numeric input
  /// — so the sysfs text grammar is unchanged; but read_long()/write_long()
  /// through a handle call the typed handlers directly, skipping the
  /// format/parse round-trip. Use for integer files polled every tick
  /// (temp1_input, scaling_cur_freq, pwm1).
  void add_attribute_long(const std::string& path, LongReadFn read,
                          LongWriteFn write = nullptr);

  /// Unregisters `path`. Outstanding handles to it are invalidated (reads
  /// return nullopt, writes return false) but never dangle.
  void remove_attribute(const std::string& path);

  [[nodiscard]] bool exists(const std::string& path) const;

  /// Reads an attribute; nullopt if missing or write-only (-EACCES).
  [[nodiscard]] std::optional<std::string> read(const std::string& path) const;

  /// Reads and parses as a long integer; nullopt on missing/parse failure.
  [[nodiscard]] std::optional<long> read_long(const std::string& path) const;

  /// Writes an attribute; false if missing, read-only, or rejected.
  bool write(const std::string& path, const std::string& value);
  bool write_long(const std::string& path, long value);

  /// Resolves `path` once; a null handle if the attribute is missing.
  [[nodiscard]] Handle open(const std::string& path) const;

  /// Handle-based accessors: identical semantics to the path forms (same
  /// handlers, same text grammar), minus the lookup.
  [[nodiscard]] std::optional<std::string> read(Handle h) const;
  [[nodiscard]] std::optional<long> read_long(Handle h) const;
  bool write(Handle h, const std::string& value);
  bool write_long(Handle h, long value);

  /// All attribute paths under a directory prefix, sorted.
  [[nodiscard]] std::vector<std::string> list(const std::string& dir_prefix) const;

 private:
  struct Entry {
    const std::string* path;  // interned: one copy per distinct path per process
    Attribute* attr;          // into slots_
  };

  [[nodiscard]] std::vector<Entry>::const_iterator lower_bound(std::string_view path) const;
  [[nodiscard]] const Entry* find(std::string_view path) const;
  void insert(const std::string& path, Attribute attr);

  // Stable storage: deque growth never moves an element, so handles stay
  // valid. A removed attribute's slot is cleared in place and left behind as
  // its own graveyard — bounded by the number of removals (device unpublish
  // events), not by accesses.
  std::deque<Attribute> slots_;
  // Live attributes sorted by path: binary-search lookup and prefix scans.
  std::vector<Entry> index_;
};

}  // namespace thermctl::sysfs
