# Project-include hook that grafts thermbench onto the root build without
# editing it:
#
#   cmake -S . -B build-bench -DCMAKE_BUILD_TYPE=Release \
#     -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" -DTHERMCTL_BUILD_TESTS=OFF \
#     -DTHERMCTL_BUILD_BENCH=OFF -DTHERMCTL_BUILD_EXAMPLES=OFF \
#     -DCMAKE_PROJECT_thermctl_INCLUDE=$PWD/benchmark/thermbench.cmake
#
# CMake runs this file right after the root's project() call, in the root
# directory scope — so enable_testing() here is what lets `ctest` find the
# benchmark's entries from the build root.
enable_testing()
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/benchmark)
