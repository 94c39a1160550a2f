// Cache-line-aligned vector storage for SoA hot arrays.
//
// The batched solvers sweep node-major rows of per-instance doubles with
// unit-stride loops; starting each array on a 64-byte boundary keeps row
// starts cache-line clean for the (power-of-two) fleet sizes the ladder
// measures, and leaves a vectorizing build no peel prologue to pay (the
// default -O2 build vectorizes none of these loops).
// Alignment changes where the bytes live, never what they hold — bit-exact
// trajectories are unaffected.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace thermctl {

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Alignment >= alignof(T), "alignment below the type's natural requirement");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be a power of two");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) { return false; }
};

/// std::vector whose buffer starts on a 64-byte (cache line) boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace thermctl
