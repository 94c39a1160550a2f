#include "sysfs/proc_stat.hpp"

#include <gtest/gtest.h>

namespace thermctl::sysfs {
namespace {

TEST(ProcStat, PublishesKernelFormat) {
  VirtualFs fs;
  std::uint64_t busy = 1234;
  std::uint64_t total = 5000;
  ProcStat ps{fs, &busy, &total};
  const auto contents = fs.read("/proc/stat");
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(*contents, "cpu  1234 0 0 3766 0 0 0\n");
}

TEST(ProcStat, ParseRoundTrip) {
  VirtualFs fs;
  std::uint64_t busy = 777;
  std::uint64_t total = 1000;
  ProcStat ps{fs, &busy, &total};
  const auto snap = ps.read(fs);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->busy, 777u);
  EXPECT_EQ(snap->total, 1000u);
}

TEST(ProcStat, ParseSumsBusyColumns) {
  const auto snap = ProcStat::parse("cpu  100 20 30 850 0 0 0\n");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->busy, 150u);
  EXPECT_EQ(snap->total, 1000u);
}

TEST(ProcStat, ParseRejectsGarbage) {
  EXPECT_FALSE(ProcStat::parse("intr 12345").has_value());
  EXPECT_FALSE(ProcStat::parse("cpu x y z").has_value());
  EXPECT_FALSE(ProcStat::parse("").has_value());
}

TEST(ProcStat, CountersAdvanceThroughAttribute) {
  VirtualFs fs;
  std::uint64_t busy = 0;
  std::uint64_t total = 0;
  ProcStat ps{fs, &busy, &total};
  auto s1 = ps.read(fs);
  busy += 80;
  total += 100;
  auto s2 = ps.read(fs);
  ASSERT_TRUE(s1.has_value() && s2.has_value());
  EXPECT_EQ(s2->busy - s1->busy, 80u);
  EXPECT_EQ(s2->total - s1->total, 100u);
}

TEST(ProcStat, DestructorRemovesAttribute) {
  VirtualFs fs;
  {
    const std::uint64_t zero = 0;
    ProcStat ps{fs, &zero, &zero};
    EXPECT_TRUE(fs.exists("/proc/stat"));
  }
  EXPECT_FALSE(fs.exists("/proc/stat"));
}

}  // namespace
}  // namespace thermctl::sysfs
