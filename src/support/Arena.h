//===- support/Arena.h - Bump-pointer slab allocator ---------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for the analyzer's read-and-attribute hot path
/// (docs/READPATH.md).  Allocation is a pointer increment into the current
/// slab; exhausted slabs are chained and everything is released at once
/// when the arena dies.  There is no per-object free — the intended
/// lifetime is "one analysis phase": symbolization bumps its accumulator
/// table out of an arena and drops the whole arena once the arcs are
/// sorted, and the symbol table interns every routine name into one arena
/// that lives exactly as long as the table.
///
/// Not thread-safe: one owner allocates from an arena at a time.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_ARENA_H
#define GPROF_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace gprof {

/// Bump allocator over geometrically growing slabs.
class Arena {
public:
  /// \p FirstSlabBytes sizes the initial slab; later slabs double up to
  /// MaxSlabBytes.  Nothing is allocated until the first allocate().
  explicit Arena(size_t FirstSlabBytes = 4096)
      : NextSlabBytes(FirstSlabBytes < MinSlabBytes ? MinSlabBytes
                                                    : FirstSlabBytes) {}

  Arena(Arena &&) = default;
  Arena &operator=(Arena &&) = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Bytes of storage aligned to \p Align.  Never fails short
  /// of operator new failing; never reuses or frees until the arena dies.
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 && "bad alignment");
    uintptr_t P = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    if (P + Bytes > End) {
      newSlab(Bytes + Align);
      P = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    }
    Cur = P + Bytes;
    Allocated += Bytes;
    return reinterpret_cast<void *>(P);
  }

  /// Typed array allocation (uninitialized for trivial T).
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p Size bytes into the arena and returns the stable copy.
  /// The interning primitive behind the symbol-name arena.
  const char *internBytes(const char *Data, size_t Size) {
    char *P = allocateArray<char>(Size);
    std::memcpy(P, Data, Size);
    return P;
  }

  /// Total bytes handed out (telemetry; excludes slab slack).
  size_t bytesAllocated() const { return Allocated; }

private:
  static constexpr size_t MinSlabBytes = 256;
  static constexpr size_t MaxSlabBytes = 1u << 20;

  void newSlab(size_t AtLeast) {
    size_t Bytes = NextSlabBytes;
    if (Bytes < AtLeast)
      Bytes = AtLeast;
    Slabs.push_back(std::make_unique<uint8_t[]>(Bytes));
    Cur = reinterpret_cast<uintptr_t>(Slabs.back().get());
    End = Cur + Bytes;
    if (NextSlabBytes < MaxSlabBytes)
      NextSlabBytes *= 2;
  }

  std::vector<std::unique_ptr<uint8_t[]>> Slabs;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t NextSlabBytes;
  size_t Allocated = 0;
};

} // namespace gprof

#endif // GPROF_SUPPORT_ARENA_H
