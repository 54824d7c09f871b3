//===- support/Arena.h - Fixed-capacity bump byte arena --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity byte arena combining three cheap mechanisms that make
/// per-request memory hygiene O(bytes actually used) instead of O(capacity):
///
///   * bump allocation — a cursor advanced with overflow-checked
///     arithmetic, plus a high-water mark recording the deepest cursor
///     ever reached (allocation-pressure accounting);
///   * exact touched-range tracking — [TouchedLo, TouchedHi) brackets
///     every byte ever written, so "return to all-zeroes" is one memset
///     over the dirty range, not the whole backing store;
///   * O(1) cursor reset — resetCursor() rewinds the allocator without
///     touching memory, leaving zeroing policy to the caller (SimMemory's
///     request boundary zeroes exactly the allocated prefix, preserving
///     the documented attack semantics of out-of-cursor heap bytes).
///
/// The backing store is a private anonymous mapping, so it reads all zeroes
/// at construction and the kernel supplies each page on first touch: an
/// arena costs resident memory only for the pages its owner reaches, not
/// its capacity. An arena whose touched range has been zeroed is bitwise
/// indistinguishable from a fresh one — the property a VM's reset to its
/// load state (Interpreter::resetToLoad) is built on. Zeroing keeps the
/// pages resident (no madvise on the reset paths): a server's next request
/// touches the same pages again.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_SUPPORT_ARENA_H
#define SMOKESTACK_SUPPORT_ARENA_H

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <system_error>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

namespace smokestack {

class ByteArena {
public:
  /// Sentinel returned by tryAllocate() when the arena is exhausted (or the
  /// request overflows the arithmetic).
  static constexpr uint64_t NoSpace = UINT64_MAX;

  /// Maps \p Offset + \p Capacity bytes and places data() \p Offset bytes
  /// into the mapping. Throws std::bad_alloc when the kernel refuses the
  /// mapping (commit accounting included: there is no MAP_NORESERVE).
  ByteArena(uint64_t Capacity, uint64_t Offset)
      : Map(mapZeroed(Offset + Capacity)), Bytes(Map.get() + Offset),
        Cap(Capacity), TouchedLo(Capacity) {}

  uint8_t *data() { return Bytes; }
  const uint8_t *data() const { return Bytes; }
  uint64_t capacity() const { return Cap; }

  /// Bytes of the mapping resident in memory, whole pages (mincore). A page
  /// that was only read counts too: it maps the kernel's shared zero page.
  uint64_t residentBytes() const {
    uint64_t Page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
    uint64_t Len = Map.get_deleter().Len;
    std::vector<unsigned char> InCore((Len + Page - 1) / Page);
    if (mincore(Map.get(), Len, InCore.data()) != 0)
      throw std::system_error(errno, std::generic_category(), "mincore");
    uint64_t Pages = 0;
    for (unsigned char C : InCore)
      Pages += C & 1;
    return Pages * Page;
  }

  //===--------------------------------------------------------------------===//
  // Touched-range tracking
  //===--------------------------------------------------------------------===//

  /// Widens the touched range to cover [Lo, Hi). Two predictable compares
  /// on the write hot path.
  void noteTouched(uint64_t Lo, uint64_t Hi) {
    if (Lo < TouchedLo)
      TouchedLo = Lo;
    if (Hi > TouchedHi)
      TouchedHi = Hi;
  }

  /// Stable addresses of the touched-range bounds, for code that updates
  /// them without going through noteTouched() — the JIT's inlined stack
  /// stores replicate noteTouched's two compares against these slots, so
  /// both engines keep one set of books. The encoding invariant (empty is
  /// Lo == capacity, Hi == 0) must be preserved by any writer.
  uint64_t *touchedLoSlot() { return &TouchedLo; }
  uint64_t *touchedHiSlot() { return &TouchedHi; }

  bool touched() const { return TouchedHi > TouchedLo; }
  uint64_t touchedLo() const { return touched() ? TouchedLo : 0; }
  uint64_t touchedHi() const { return touched() ? TouchedHi : 0; }
  uint64_t touchedBytes() const { return touched() ? TouchedHi - TouchedLo : 0; }

  /// Zeroes the touched range and collapses it, returning the backing store
  /// to its freshly-constructed (all-zero) image. Returns the bytes zeroed.
  uint64_t zeroTouched() {
    uint64_t Zeroed = touchedBytes();
    if (Zeroed)
      std::memset(Bytes + TouchedLo, 0, Zeroed);
    TouchedLo = Cap;
    TouchedHi = 0;
    return Zeroed;
  }

  //===--------------------------------------------------------------------===//
  // Bump allocation
  //===--------------------------------------------------------------------===//

  /// Reserves \p Size bytes at the cursor and returns the offset of the
  /// reservation, or NoSpace when the arena cannot hold it. Overflow-safe:
  /// the exhaustion test is phrased against the remaining capacity, so a
  /// Size near UINT64_MAX cannot wrap the cursor past the check.
  uint64_t tryAllocate(uint64_t Size) {
    if (Size > Cap - Cursor)
      return NoSpace;
    uint64_t Offset = Cursor;
    Cursor += Size;
    if (Cursor > HighWater)
      HighWater = Cursor;
    return Offset;
  }

  uint64_t cursor() const { return Cursor; }

  /// Deepest cursor position ever reached (never reset — allocation
  /// pressure accounting across the arena's lifetime).
  uint64_t highWater() const { return HighWater; }

  /// O(1) rewind of the allocator; memory contents are untouched.
  void resetCursor() { Cursor = 0; }

private:
  struct Unmap {
    uint64_t Len;
    void operator()(uint8_t *P) const { munmap(P, Len); }
  };

  static std::unique_ptr<uint8_t, Unmap> mapZeroed(uint64_t Len) {
    void *P = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    // A transparent huge page would make one touch resident 2 MiB, which is
    // the footprint the lazy mapping exists to avoid.
    madvise(P, Len, MADV_NOHUGEPAGE);
    return {static_cast<uint8_t *>(P), Unmap{Len}};
  }

  std::unique_ptr<uint8_t, Unmap> Map;
  uint8_t *Bytes;
  uint64_t Cap;
  uint64_t Cursor = 0;
  uint64_t HighWater = 0;
  /// Empty range is encoded as Lo == Cap, Hi == 0 so the first noteTouched
  /// initializes both bounds without a branch on "is this the first write".
  uint64_t TouchedLo;
  uint64_t TouchedHi = 0;
};

} // namespace smokestack

#endif // SMOKESTACK_SUPPORT_ARENA_H
