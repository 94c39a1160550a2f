// Column groups: the structure-of-arrays home of a device's per-row state.
//
// A group holds its constants once and one std::vector per column, one row
// per device. Each group declares its columns last and lists every one of
// them once, in `columns(group)`: memory_bytes() counts what that list
// names, groups whose fresh rows start at zero size their columns through
// it, and tests/cluster/test_fleet_state.cpp checks that the list covers
// the group from its first column to its end. A column added to a group
// but not to its list fails that test instead of dropping out of the
// footprint.
#pragma once

#include <cstddef>
#include <tuple>

namespace thermctl {

/// Heap bytes the columns of `columns` (a group's list) reserve.
template <typename... Column>
[[nodiscard]] std::size_t column_bytes(const std::tuple<Column&...>& columns) {
  return std::apply(
      [](const auto&... c) { return (std::size_t{0} + ... + (c.capacity() * sizeof(c[0]))); },
      columns);
}

/// Sizes every column of `columns` to `n` value-initialized (zero) rows.
template <typename... Column>
void size_columns(const std::tuple<Column&...>& columns, std::size_t n) {
  std::apply([n](auto&... c) { (c.resize(n), ...); }, columns);
}

}  // namespace thermctl
