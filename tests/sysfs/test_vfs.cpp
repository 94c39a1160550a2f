#include "sysfs/vfs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace thermctl::sysfs {
namespace {

TEST(VirtualFs, ReadRegisteredAttribute) {
  VirtualFs fs;
  fs.add_attribute("/sys/test/value", [] { return std::string{"42"}; });
  EXPECT_TRUE(fs.exists("/sys/test/value"));
  EXPECT_EQ(fs.read("/sys/test/value").value(), "42");
}

TEST(VirtualFs, MissingAttributeReadsNullopt) {
  VirtualFs fs;
  EXPECT_FALSE(fs.read("/sys/missing").has_value());
  EXPECT_FALSE(fs.exists("/sys/missing"));
}

TEST(VirtualFs, WriteDispatchesToHandler) {
  VirtualFs fs;
  std::string stored;
  fs.add_attribute(
      "/sys/test/knob", [&stored] { return stored; },
      [&stored](const std::string& v) {
        stored = v;
        return true;
      });
  EXPECT_TRUE(fs.write("/sys/test/knob", "hello"));
  EXPECT_EQ(fs.read("/sys/test/knob").value(), "hello");
}

TEST(VirtualFs, WriteToReadOnlyFails) {
  VirtualFs fs;
  fs.add_attribute("/sys/test/ro", [] { return std::string{"x"}; });
  EXPECT_FALSE(fs.write("/sys/test/ro", "y"));
}

TEST(VirtualFs, ReadFromWriteOnlyFails) {
  VirtualFs fs;
  fs.add_attribute("/sys/test/wo", nullptr, [](const std::string&) { return true; });
  EXPECT_FALSE(fs.read("/sys/test/wo").has_value());
  EXPECT_TRUE(fs.write("/sys/test/wo", "v"));
}

TEST(VirtualFs, HandlerRejectionPropagates) {
  VirtualFs fs;
  fs.add_attribute("/sys/test/strict", [] { return std::string{}; },
                   [](const std::string& v) { return v == "ok"; });
  EXPECT_FALSE(fs.write("/sys/test/strict", "bad"));
  EXPECT_TRUE(fs.write("/sys/test/strict", "ok"));
}

TEST(VirtualFs, ReadLongParses) {
  VirtualFs fs;
  fs.add_attribute("/sys/test/num", [] { return std::string{"2400000"}; });
  EXPECT_EQ(fs.read_long("/sys/test/num").value(), 2400000);
}

TEST(VirtualFs, ReadLongRejectsGarbage) {
  VirtualFs fs;
  fs.add_attribute("/sys/test/str", [] { return std::string{"userspace"}; });
  EXPECT_FALSE(fs.read_long("/sys/test/str").has_value());
}

TEST(VirtualFs, WriteLongFormats) {
  VirtualFs fs;
  std::string stored;
  fs.add_attribute("/sys/test/n", nullptr, [&stored](const std::string& v) {
    stored = v;
    return true;
  });
  EXPECT_TRUE(fs.write_long("/sys/test/n", 1800000));
  EXPECT_EQ(stored, "1800000");
}

TEST(VirtualFs, ListReturnsSortedPrefixMatches) {
  VirtualFs fs;
  auto ro = [] { return std::string{}; };
  fs.add_attribute("/sys/class/hwmon/hwmon0/temp1_input", ro);
  fs.add_attribute("/sys/class/hwmon/hwmon0/pwm1", ro);
  fs.add_attribute("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq", ro);
  const auto listed = fs.list("/sys/class/hwmon/hwmon0");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "/sys/class/hwmon/hwmon0/pwm1");
  EXPECT_EQ(listed[1], "/sys/class/hwmon/hwmon0/temp1_input");
}

TEST(VirtualFs, RemoveAttribute) {
  VirtualFs fs;
  fs.add_attribute("/sys/x", [] { return std::string{}; });
  fs.remove_attribute("/sys/x");
  EXPECT_FALSE(fs.exists("/sys/x"));
}

TEST(VirtualFs, TypedHandleSeesStringPathWrites) {
  // Mixed access to one numeric attribute: the typed handle and the string
  // path are two views of the same handlers, so a write through either
  // surface must be visible to the next read through the other.
  VirtualFs fs;
  long stored = 1000;
  fs.add_attribute_long(
      "/sys/test/freq", [&stored] { return stored; },
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
  VirtualFs fs;
  long stored = 7;
  fs.add_attribute_long(
      "/sys/test/gone", [&stored] { return stored; },
      [&stored](long v) {
        stored = v;
        return true;
      });
  const VirtualFs::Handle h = fs.open("/sys/test/gone");
  ASSERT_EQ(fs.read_long(h).value(), 7);

  fs.remove_attribute("/sys/test/gone");
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
  VirtualFs fs;
  fs.add_attribute_long("/sys/test/temp", [] { return 41000L; });
  const VirtualFs::Handle stale = fs.open("/sys/test/temp");
  ASSERT_EQ(fs.read_long(stale).value(), 41000);

  fs.remove_attribute("/sys/test/temp");
  long fresh_value = 52000;
  fs.add_attribute_long(
      "/sys/test/temp", [&fresh_value] { return fresh_value; },
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
  VirtualFs a;
  VirtualFs b;
  long va = 1;
  long vb = 2;
  const std::string path = "/sys/class/hwmon/hwmon0/pwm1";
  for (auto [fs, v] : {std::pair{&a, &va}, std::pair{&b, &vb}}) {
    fs->add_attribute_long(
        path, [v] { return *v; },
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

  b.remove_attribute(path);
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
        VirtualFs fs;
        const long value = t * 1000 + k;
        fs.add_attribute_long("/sys/class/hwmon/hwmon0/temp1_input", [value] { return value; });
        fs.add_attribute("/sys/class/hwmon/hwmon0/name", [] { return std::string{"adt7467"}; });
        if (fs.read_long("/sys/class/hwmon/hwmon0/temp1_input") != value ||
            fs.list("/sys/class/hwmon/hwmon0").size() != 2) {
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
  VirtualFs fs;
  long old_value = 1;
  fs.add_attribute_long(
      "/sys/test/pwm", [&old_value] { return old_value; },
      [&old_value](long v) {
        old_value = v;
        return true;
      });
  const VirtualFs::Handle stale = fs.open("/sys/test/pwm");
  fs.remove_attribute("/sys/test/pwm");
  std::string new_value = "fresh";
  fs.add_attribute(
      "/sys/test/pwm", [&new_value] { return new_value; },
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
  VirtualFs fs;
  auto ro = [] { return std::string{}; };
  fs.add_attribute("/sys/a/z", ro);
  fs.add_attribute("/sys/b/x", ro);
  fs.add_attribute("/sys/a/m", ro);
  fs.add_attribute("/sys/ab/c", ro);  // shares the "/sys/a" text, not the dir
  fs.remove_attribute("/sys/a/z");
  fs.add_attribute("/sys/a/b", ro);
  fs.add_attribute("/sys/a/z", ro);
  fs.remove_attribute("/sys/a/m");
  fs.add_attribute("/sys/a", ro);  // the directory name itself is no child
  EXPECT_EQ(fs.list("/sys/a"), (std::vector<std::string>{"/sys/a/b", "/sys/a/z"}));
  EXPECT_EQ(fs.list("/sys/a/"), (std::vector<std::string>{"/sys/a/b", "/sys/a/z"}));
  EXPECT_EQ(fs.list("/sys"), (std::vector<std::string>{"/sys/a", "/sys/a/b", "/sys/a/z",
                                                       "/sys/ab/c", "/sys/b/x"}));
  EXPECT_TRUE(fs.list("/sys/c").empty());
}

TEST(VirtualFs, LongAttributeTextAndTypedSurfacesAgree) {
  VirtualFs fs;
  long stored = -42;
  fs.add_attribute_long(
      "/sys/test/n", [&stored] { return stored; },
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
  VirtualFs fs;
  fs.add_attribute_long("/sys/test/ro", [] { return 5L; });
  EXPECT_FALSE(fs.write("/sys/test/ro", "6"));
  EXPECT_FALSE(fs.write_long(fs.open("/sys/test/ro"), 6));
  EXPECT_EQ(fs.read_long("/sys/test/ro").value(), 5);
}

TEST(VirtualFsDeath, RelativePathAborts) {
  VirtualFs fs;
  EXPECT_DEATH(fs.add_attribute("sys/x", [] { return std::string{}; }), "absolute");
}

TEST(VirtualFsDeath, DuplicateRegistrationAborts) {
  VirtualFs fs;
  fs.add_attribute("/sys/x", [] { return std::string{}; });
  EXPECT_DEATH(fs.add_attribute("/sys/x", [] { return std::string{}; }), "already");
}

}  // namespace
}  // namespace thermctl::sysfs
