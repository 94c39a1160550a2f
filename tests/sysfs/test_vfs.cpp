#include "sysfs/vfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace thermctl::sysfs {
namespace {

/// A device-style mount for the tests: a static table over an owner.
struct Knob {
  std::string label;
  long value = 0;
};

constexpr VirtualFs::Attr kKnobFiles[] = {
    {.name = "label", .read = [](const void* k) { return static_cast<const Knob*>(k)->label; }},
    {.name = "value",
     .read_long = [](const void* k) { return static_cast<const Knob*>(k)->value; },
     .write_long = [](void* k, long v) {
       static_cast<Knob*>(k)->value = v;
       return v >= 0;
     }},
};
static_assert(VirtualFs::valid_table(kKnobFiles));

constexpr VirtualFs::Attr kUnsorted[] = {
    {.name = "b", .read = [](const void*) { return std::string{}; }},
    {.name = "a", .read = [](const void*) { return std::string{}; }},
};
constexpr VirtualFs::Attr kNested[] = {
    {.name = "stats/total", .read = [](const void*) { return std::string{}; }},
};
constexpr VirtualFs::Attr kTextAndTyped[] = {
    {.name = "x",
     .read = [](const void*) { return std::string{}; },
     .read_long = [](const void*) { return 0L; }},
};
static_assert(!VirtualFs::valid_table(kUnsorted) && !VirtualFs::valid_table(kNested) &&
              !VirtualFs::valid_table(kTextAndTyped));

/// Files the test states inline: each one a one-entry mount table over the
/// test's closures, text or typed. The fs holds each table's address and
/// its name's, and a deque never moves its elements, so they stay put.
class Files {
 public:
  VirtualFs::Mount text(VirtualFs& fs, std::string_view path, std::function<std::string()> read,
                        std::function<bool(const std::string&)> write = nullptr) {
    File& f = files_.emplace_back();
    f.read = std::move(read);
    f.write = std::move(write);
    if (f.read) {
      f.attr.read = [](const void* o) { return static_cast<const File*>(o)->read(); };
    }
    if (f.write) {
      f.attr.write = [](void* o, const std::string& v) { return static_cast<File*>(o)->write(v); };
    }
    return publish(fs, path, f);
  }

  VirtualFs::Mount number(VirtualFs& fs, std::string_view path, std::function<long()> read,
                          std::function<bool(long)> write = nullptr) {
    File& f = files_.emplace_back();
    f.read_long = std::move(read);
    f.write_long = std::move(write);
    if (f.read_long) {
      f.attr.read_long = [](const void* o) { return static_cast<const File*>(o)->read_long(); };
    }
    if (f.write_long) {
      f.attr.write_long = [](void* o, long v) { return static_cast<File*>(o)->write_long(v); };
    }
    return publish(fs, path, f);
  }

 private:
  struct File {
    std::string name;
    std::function<std::string()> read;
    std::function<bool(const std::string&)> write;
    std::function<long()> read_long;
    std::function<bool(long)> write_long;
    VirtualFs::Attr attr;
  };

  static VirtualFs::Mount publish(VirtualFs& fs, std::string_view path, File& f) {
    const std::size_t slash = path.rfind('/');
    f.name = path.substr(slash + 1);
    f.attr.name = f.name;
    return fs.mount(path.substr(0, slash), {&f.attr, 1}, &f);
  }

  std::deque<File> files_;
};

TEST(VirtualFs, ReadRegisteredAttribute) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/test/value", [] { return std::string{"42"}; });
  EXPECT_TRUE(fs.exists("/sys/test/value"));
  EXPECT_EQ(fs.read("/sys/test/value").value(), "42");
}

TEST(VirtualFs, MissingAttributeReadsNullopt) {
  VirtualFs fs;
  EXPECT_FALSE(fs.read("/sys/missing").has_value());
  EXPECT_FALSE(fs.exists("/sys/missing"));
}

TEST(VirtualFs, WriteDispatchesToHandler) {
  Files files;
  VirtualFs fs;
  std::string stored;
  files.text(
      fs, "/sys/test/knob", [&stored] { return stored; },
      [&stored](const std::string& v) {
        stored = v;
        return true;
      });
  EXPECT_TRUE(fs.write("/sys/test/knob", "hello"));
  EXPECT_EQ(fs.read("/sys/test/knob").value(), "hello");
}

TEST(VirtualFs, WriteToReadOnlyFails) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/test/ro", [] { return std::string{"x"}; });
  EXPECT_FALSE(fs.write("/sys/test/ro", "y"));
}

TEST(VirtualFs, ReadFromWriteOnlyFails) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/test/wo", nullptr, [](const std::string&) { return true; });
  EXPECT_FALSE(fs.read("/sys/test/wo").has_value());
  EXPECT_TRUE(fs.write("/sys/test/wo", "v"));
}

TEST(VirtualFs, HandlerRejectionPropagates) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/test/strict", [] { return std::string{}; },
                   [](const std::string& v) { return v == "ok"; });
  EXPECT_FALSE(fs.write("/sys/test/strict", "bad"));
  EXPECT_TRUE(fs.write("/sys/test/strict", "ok"));
}

TEST(VirtualFs, ReadLongParses) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/test/num", [] { return std::string{"2400000"}; });
  EXPECT_EQ(fs.read_long("/sys/test/num").value(), 2400000);
}

TEST(VirtualFs, ReadLongRejectsGarbage) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/test/str", [] { return std::string{"userspace"}; });
  EXPECT_FALSE(fs.read_long("/sys/test/str").has_value());
}

TEST(VirtualFs, WriteLongFormats) {
  Files files;
  VirtualFs fs;
  std::string stored;
  files.text(fs, "/sys/test/n", nullptr, [&stored](const std::string& v) {
    stored = v;
    return true;
  });
  EXPECT_TRUE(fs.write_long("/sys/test/n", 1800000));
  EXPECT_EQ(stored, "1800000");
}

TEST(VirtualFs, ListReturnsSortedPrefixMatches) {
  Files files;
  VirtualFs fs;
  auto ro = [] { return std::string{}; };
  files.text(fs, "/sys/class/hwmon/hwmon0/temp1_input", ro);
  files.text(fs, "/sys/class/hwmon/hwmon0/pwm1", ro);
  files.text(fs, "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq", ro);
  const auto listed = fs.list("/sys/class/hwmon/hwmon0");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "/sys/class/hwmon/hwmon0/pwm1");
  EXPECT_EQ(listed[1], "/sys/class/hwmon/hwmon0/temp1_input");
}

TEST(VirtualFs, RemoveAttribute) {
  Files files;
  VirtualFs fs;
  fs.unmount(files.text(fs, "/sys/x", [] { return std::string{}; }));
  EXPECT_FALSE(fs.exists("/sys/x"));
}

TEST(VirtualFs, TypedHandleSeesStringPathWrites) {
  // Mixed access to one numeric attribute: the typed handle and the string
  // path are two views of the same handlers, so a write through either
  // surface must be visible to the next read through the other.
  Files files;
  VirtualFs fs;
  long stored = 1000;
  files.number(
      fs, "/sys/test/freq", [&stored] { return stored; },
      [&stored](long v) {
        stored = v;
        return true;
      });
  const VirtualFs::Handle h = fs.open("/sys/test/freq");
  ASSERT_TRUE(static_cast<bool>(h));
  EXPECT_EQ(fs.read_long(h).value(), 1000);

  EXPECT_TRUE(fs.write("/sys/test/freq", "2400"));  // string-path write
  EXPECT_EQ(fs.read_long(h).value(), 2400);         // typed handle is fresh

  EXPECT_TRUE(fs.write_long(h, 1800));              // typed-handle write
  EXPECT_EQ(fs.read("/sys/test/freq").value(), "1800");  // string path is fresh
}

TEST(VirtualFs, StaleHandleFailsClosedAfterRemove) {
  Files files;
  VirtualFs fs;
  long stored = 7;
  const VirtualFs::Mount m = files.number(
      fs, "/sys/test/gone", [&stored] { return stored; },
      [&stored](long v) {
        stored = v;
        return true;
      });
  const VirtualFs::Handle h = fs.open("/sys/test/gone");
  ASSERT_EQ(fs.read_long(h).value(), 7);

  fs.unmount(m);
  // The handle must not dangle: every access through it fails closed.
  EXPECT_FALSE(fs.read_long(h).has_value());
  EXPECT_FALSE(fs.read(h).has_value());
  EXPECT_FALSE(fs.write_long(h, 9));
  EXPECT_FALSE(fs.write(h, "9"));
  EXPECT_EQ(stored, 7);  // the old handler was never invoked
}

TEST(VirtualFs, StaleHandleNeverReadsReRegisteredAttribute) {
  // Remove + re-register at the same path (device unpublish/republish): a
  // handle cached before the swap must not alias the new attribute — a
  // string-path write to the new one can then never be shadowed by a stale
  // cached long from the old one.
  Files files;
  VirtualFs fs;
  const VirtualFs::Mount old = files.number(fs, "/sys/test/temp", [] { return 41000L; });
  const VirtualFs::Handle stale = fs.open("/sys/test/temp");
  ASSERT_EQ(fs.read_long(stale).value(), 41000);

  fs.unmount(old);
  long fresh_value = 52000;
  files.number(
      fs, "/sys/test/temp", [&fresh_value] { return fresh_value; },
      [&fresh_value](long v) {
        fresh_value = v;
        return true;
      });

  EXPECT_FALSE(fs.read_long(stale).has_value());  // not the old value...
  EXPECT_TRUE(fs.write("/sys/test/temp", "53000"));
  EXPECT_FALSE(fs.read_long(stale).has_value());  // ...and never the new one
  const VirtualFs::Handle reopened = fs.open("/sys/test/temp");
  EXPECT_EQ(fs.read_long(reopened).value(), 53000);
}

TEST(VirtualFs, TreesWithIdenticalPathsAreIndependent) {
  // Every node registers the same paths, so the path keys are shared across
  // trees; the handlers behind them must not be.
  Files files;
  VirtualFs a;
  VirtualFs b;
  long va = 1;
  long vb = 2;
  const std::string path = "/sys/class/hwmon/hwmon0/pwm1";
  VirtualFs::Mount in_b;
  for (auto [fs, v] : {std::pair{&a, &va}, std::pair{&b, &vb}}) {
    in_b = files.number(
        *fs, path, [v] { return *v; },
        [v](long x) {
          *v = x;
          return true;
        });
  }
  EXPECT_TRUE(a.write_long(path, 100));
  EXPECT_EQ(va, 100);
  EXPECT_EQ(vb, 2);
  EXPECT_EQ(b.read(path).value(), "2");
  EXPECT_EQ(b.read_long(b.open(path)).value(), 2);

  b.unmount(in_b);
  EXPECT_FALSE(b.exists(path));
  EXPECT_EQ(a.read(path).value(), "100");
}

TEST(VirtualFs, TreesBuiltConcurrentlyShareNoState) {
  // Rigs are built on runner threads at once, all interning the same paths.
  constexpr int kThreads = 4;
  constexpr int kTrees = 50;
  std::vector<long> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      for (int k = 0; k < kTrees; ++k) {
        Files files;
        VirtualFs fs;
        const long value = t * 1000 + k;
        files.number(fs, "/sys/class/hwmon/hwmon0/temp1_input", [value] { return value; });
        files.text(fs, "/sys/class/hwmon/hwmon0/name", [] { return std::string{"adt7467"}; });
        Knob knob{"k", value};
        fs.mount("/sys/class/thermal/cooling_device0", kKnobFiles, &knob);
        if (fs.read_long("/sys/class/hwmon/hwmon0/temp1_input") != value ||
            fs.list("/sys/class/hwmon/hwmon0").size() != 2 ||
            fs.read_long("/sys/class/thermal/cooling_device0/value") != value ||
            fs.list("/sys/class").size() != 4) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches, std::vector<long>(kThreads, 0));
}

TEST(VirtualFs, StaleHandleWritesFailAfterReRegister) {
  Files files;
  VirtualFs fs;
  long old_value = 1;
  const VirtualFs::Mount old = files.number(
      fs, "/sys/test/pwm", [&old_value] { return old_value; },
      [&old_value](long v) {
        old_value = v;
        return true;
      });
  const VirtualFs::Handle stale = fs.open("/sys/test/pwm");
  fs.unmount(old);
  std::string new_value = "fresh";
  files.text(
      fs, "/sys/test/pwm", [&new_value] { return new_value; },
      [&new_value](const std::string& v) {
        new_value = v;
        return true;
      });

  EXPECT_FALSE(fs.read(stale).has_value());
  EXPECT_FALSE(fs.read_long(stale).has_value());
  EXPECT_FALSE(fs.write(stale, "7"));
  EXPECT_FALSE(fs.write_long(stale, 7));
  EXPECT_EQ(old_value, 1);
  EXPECT_EQ(new_value, "fresh");

  const VirtualFs::Handle fresh = fs.open("/sys/test/pwm");
  EXPECT_EQ(fs.read(fresh).value(), "fresh");
  EXPECT_TRUE(fs.write(fresh, "set"));
  EXPECT_EQ(new_value, "set");
}

TEST(VirtualFs, ListStaysSortedAcrossAddAndRemove) {
  Files files;
  VirtualFs fs;
  auto ro = [] { return std::string{}; };
  const VirtualFs::Mount z = files.text(fs, "/sys/a/z", ro);
  files.text(fs, "/sys/b/x", ro);
  const VirtualFs::Mount m = files.text(fs, "/sys/a/m", ro);
  files.text(fs, "/sys/ab/c", ro);  // shares the "/sys/a" text, not the dir
  fs.unmount(z);
  files.text(fs, "/sys/a/b", ro);
  files.text(fs, "/sys/a/z", ro);
  fs.unmount(m);
  files.text(fs, "/sys/a", ro);  // the directory name itself is no child
  EXPECT_EQ(fs.list("/sys/a"), (std::vector<std::string>{"/sys/a/b", "/sys/a/z"}));
  EXPECT_EQ(fs.list("/sys/a/"), (std::vector<std::string>{"/sys/a/b", "/sys/a/z"}));
  EXPECT_EQ(fs.list("/sys"), (std::vector<std::string>{"/sys/a", "/sys/a/b", "/sys/a/z",
                                                       "/sys/ab/c", "/sys/b/x"}));
  EXPECT_TRUE(fs.list("/sys/c").empty());
}

TEST(VirtualFs, LongAttributeTextAndTypedSurfacesAgree) {
  Files files;
  VirtualFs fs;
  long stored = -42;
  files.number(
      fs, "/sys/test/n", [&stored] { return stored; },
      [&stored](long v) {
        stored = v;
        return true;
      });
  const VirtualFs::Handle h = fs.open("/sys/test/n");
  EXPECT_EQ(fs.read("/sys/test/n").value(), "-42");
  EXPECT_EQ(fs.read(h).value(), "-42");
  EXPECT_EQ(fs.read_long("/sys/test/n").value(), -42);
  EXPECT_EQ(fs.read_long(h).value(), -42);

  EXPECT_TRUE(fs.write(h, "2400000"));
  EXPECT_EQ(stored, 2400000);
  EXPECT_TRUE(fs.write_long("/sys/test/n", 1800000));
  EXPECT_EQ(fs.read(h).value(), "1800000");

  // Non-numeric text never reaches the typed handler.
  EXPECT_FALSE(fs.write("/sys/test/n", "fast"));
  EXPECT_FALSE(fs.write(h, ""));
  EXPECT_EQ(stored, 1800000);
}

TEST(VirtualFs, ReadOnlyLongAttributeRejectsWrites) {
  Files files;
  VirtualFs fs;
  files.number(fs, "/sys/test/ro", [] { return 5L; });
  EXPECT_FALSE(fs.write("/sys/test/ro", "6"));
  EXPECT_FALSE(fs.write_long(fs.open("/sys/test/ro"), 6));
  EXPECT_EQ(fs.read_long("/sys/test/ro").value(), 5);
}

TEST(VirtualFs, MountServesTableThroughPathsAndHandles) {
  VirtualFs fs;
  Knob knob{"fan", 7};
  const VirtualFs::Mount m = fs.mount("/sys/class/knob0", kKnobFiles, &knob);
  EXPECT_EQ(fs.directory(m), "/sys/class/knob0");
  EXPECT_EQ(fs.read("/sys/class/knob0/label").value(), "fan");
  EXPECT_EQ(fs.read("/sys/class/knob0/value").value(), "7");
  EXPECT_FALSE(fs.read_long("/sys/class/knob0/label").has_value());
  EXPECT_FALSE(fs.exists("/sys/class/knob0"));
  EXPECT_FALSE(fs.exists("/sys/class/knob0/"));
  EXPECT_FALSE(fs.exists("/sys/class/knob0/valu"));

  const VirtualFs::Handle value = VirtualFs::handle(m, 1);
  EXPECT_EQ(fs.read_long(value).value(), 7);
  EXPECT_TRUE(fs.write(value, "12"));
  EXPECT_EQ(knob.value, 12);
  EXPECT_FALSE(fs.write_long(value, -1));  // the handler's own rejection
  EXPECT_FALSE(fs.write("/sys/class/knob0/value", "twelve"));
  EXPECT_FALSE(fs.write("/sys/class/knob0/label", "x"));  // read-only
  EXPECT_FALSE(fs.read(VirtualFs::handle(m, 2)).has_value());  // past the table
  EXPECT_EQ(fs.list("/sys/class"),
            (std::vector<std::string>{"/sys/class/knob0/label", "/sys/class/knob0/value"}));
}

TEST(VirtualFs, UnmountFailsHandlesClosedAndReMountNeverRevivesThem) {
  VirtualFs fs;
  Knob first{"first", 1};
  const VirtualFs::Mount m = fs.mount("/sys/k", kKnobFiles, &first);
  const VirtualFs::Handle by_mount = VirtualFs::handle(m, 1);
  const VirtualFs::Handle by_path = fs.open("/sys/k/value");
  ASSERT_EQ(fs.read_long(by_path).value(), 1);

  fs.unmount(m);
  fs.unmount(m);  // a second unmount is a no-op
  EXPECT_FALSE(fs.exists("/sys/k/value"));
  EXPECT_TRUE(fs.list("/sys").empty());
  Knob second{"second", 2};
  const VirtualFs::Mount again = fs.mount("/sys/k", kKnobFiles, &second);
  for (const VirtualFs::Handle stale : {by_mount, by_path}) {
    EXPECT_FALSE(fs.read(stale).has_value());
    EXPECT_FALSE(fs.read_long(stale).has_value());
    EXPECT_FALSE(fs.write(stale, "5"));
    EXPECT_FALSE(fs.write_long(stale, 5));
  }
  EXPECT_EQ(first.value, 1);
  EXPECT_EQ(second.value, 2);
  EXPECT_EQ(fs.read_long(fs.open("/sys/k/value")).value(), 2);
  EXPECT_EQ(fs.read_long(VirtualFs::handle(again, 1)).value(), 2);
  EXPECT_FALSE(fs.read(VirtualFs::Handle{}).has_value());
  fs.unmount(VirtualFs::Mount{});  // a null token is ignored
}

TEST(VirtualFs, MountsAndClosuresShareOneDirectory) {
  // A directory may hold several mounts: a device table and further
  // tables (how a thermal zone adds trip points) list and resolve as one.
  Files files;
  VirtualFs fs;
  Knob knob{"zone", 3};
  fs.mount("/sys/z", kKnobFiles, &knob);
  const VirtualFs::Mount trip =
      files.text(fs, "/sys/z/trip", [] { return std::string{"passive"}; });
  files.number(fs, "/sys/z/alpha", [] { return 9L; });
  EXPECT_EQ(fs.list("/sys/z"), (std::vector<std::string>{"/sys/z/alpha", "/sys/z/label",
                                                         "/sys/z/trip", "/sys/z/value"}));
  EXPECT_EQ(fs.read("/sys/z/trip").value(), "passive");
  EXPECT_EQ(fs.read_long("/sys/z/value").value(), 3);
  fs.unmount(trip);
  EXPECT_EQ(fs.list("/sys/z"),
            (std::vector<std::string>{"/sys/z/alpha", "/sys/z/label", "/sys/z/value"}));
}

TEST(VirtualFs, ListMatchesSortedFullPathsOverRandomMounts) {
  // Directories that are prefixes of one another ("/sys/a", "/sys/a/b"),
  // share a text prefix ("/sys/ab", "/sys/a-b", "/sys/a.b") or sit at the
  // root interleave in path order; list() must return exactly the sorted
  // full paths under the prefix, across mounts of every size and unmounts, and
  // every handle of a withdrawn attribute must stay dead.
  const std::vector<std::string> dirs{"",        "/sys",      "/sys/a",  "/sys/a/b", "/sys/a/b/c",
                                      "/sys/ab", "/sys/a-b",  "/sys/a.b", "/sys/b",  "/proc"};
  const std::vector<std::string> names{"a", "b", "label", "value", "stat", "z", "a-b", "0"};
  const std::vector<std::string> prefixes{"/",      "/sys",   "/sys/",  "/sys/a", "/sys/a/b",
                                          "/sys/ab", "/sys/a-", "/proc", "/nope"};
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng{seed};
    auto pick = [&rng](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
    };
    Files files;
    VirtualFs fs;
    std::vector<std::unique_ptr<Knob>> knobs;
    struct Live {
      VirtualFs::Mount mount;
      std::vector<std::string> paths;
    };
    std::vector<Live> live;
    std::map<std::string, std::string> expected;  // path -> text
    std::vector<VirtualFs::Handle> dead;
    for (int op = 0; op < 120; ++op) {
      const std::string& dir = dirs[pick(dirs.size())];
      const std::size_t kind = pick(4);
      if (kind == 0) {
        const std::string label = "knob" + std::to_string(op);
        const std::vector<std::string> paths{dir + "/label", dir + "/value"};
        if (expected.contains(paths[0]) || expected.contains(paths[1])) {
          continue;
        }
        knobs.push_back(std::make_unique<Knob>(Knob{label, op}));
        live.push_back({fs.mount(dir, kKnobFiles, knobs.back().get()), paths});
        expected[paths[0]] = label;
        expected[paths[1]] = std::to_string(op);
      } else if (kind == 1) {
        const std::string path = dir + "/" + names[pick(names.size())];
        if (expected.contains(path)) {
          continue;
        }
        const std::string text = "t" + std::to_string(op);
        live.push_back({files.text(fs, path, [text] { return text; }), {path}});
        expected[path] = text;
      } else if (!live.empty()) {
        const std::size_t victim = pick(live.size());
        for (const std::string& path : live[victim].paths) {
          dead.push_back(fs.open(path));
          expected.erase(path);
        }
        fs.unmount(live[victim].mount);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }

      for (const std::string& prefix : prefixes) {
        std::string slash = prefix.back() == '/' ? prefix : prefix + "/";
        std::vector<std::string> want;
        for (const auto& [path, text] : expected) {
          if (path.starts_with(slash)) {
            want.push_back(path);
          }
        }
        ASSERT_EQ(fs.list(prefix), want) << "seed " << seed << " op " << op << " " << prefix;
      }
      for (const auto& [path, text] : expected) {
        ASSERT_EQ(fs.read(path), std::optional<std::string>{text}) << path;
        ASSERT_EQ(fs.read(fs.open(path)), std::optional<std::string>{text}) << path;
      }
      for (const VirtualFs::Handle h : dead) {
        ASSERT_FALSE(fs.read(h).has_value()) << "seed " << seed << " op " << op;
        ASSERT_FALSE(fs.write(h, "1"));
      }
    }
  }
}

TEST(VirtualFsDeath, RelativePathAborts) {
  Files files;
  VirtualFs fs;
  EXPECT_DEATH(files.text(fs, "sys/x", [] { return std::string{}; }), "absolute");
}

TEST(VirtualFsDeath, DuplicateRegistrationAborts) {
  Files files;
  VirtualFs fs;
  files.text(fs, "/sys/x", [] { return std::string{}; });
  EXPECT_DEATH(files.text(fs, "/sys/x", [] { return std::string{}; }), "already");
}

TEST(VirtualFsDeath, MountCollidingWithAnotherMountAborts) {
  Files files;
  VirtualFs fs;
  Knob a;
  Knob b;
  fs.mount("/sys/k", kKnobFiles, &a);
  EXPECT_DEATH(fs.mount("/sys/k", kKnobFiles, &b), "already");
  EXPECT_DEATH(files.text(fs, "/sys/k/value", [] { return std::string{}; }), "already");
}

TEST(VirtualFsDeath, BadMountsAbort) {
  Files files;
  VirtualFs fs;
  Knob k;
  EXPECT_DEATH(fs.mount("/sys/k/", kKnobFiles, &k), "absolute");
  EXPECT_DEATH(fs.mount("sys/k", kKnobFiles, &k), "absolute");
  EXPECT_DEATH(fs.mount("/sys/k", kUnsorted, &k), "name-sorted");
  EXPECT_DEATH(files.text(fs, "/sys/k/", [] { return std::string{}; }), "name-sorted");
}

}  // namespace
}  // namespace thermctl::sysfs
