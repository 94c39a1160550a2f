// Scratch file paths private to one running test case. gtest_discover_tests
// runs every case as its own process and ctest -j runs them side by side, so
// two cases that shared a fixed file name would race: one case's clean-up
// removes the other's file mid-test. The path is built from the suite and
// test name plus the process id, so no two concurrent cases share one.
#pragma once

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace thermctl {

/// TempDir()/thermctl_<Suite>.<Test>_<pid>_<suffix>, for the running case.
/// `suffix` tells apart several files of one case and carries the extension.
inline std::string test_temp_path(const std::string& suffix) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string{info->test_suite_name()} + "." + info->name();
  for (char& c : name) {
    if (c == '/') {
      c = '_';  // parameterized suites and cases put '/' in their names
    }
  }
  return ::testing::TempDir() + "thermctl_" + name + "_" + std::to_string(::getpid()) + "_" +
         suffix;
}

}  // namespace thermctl
