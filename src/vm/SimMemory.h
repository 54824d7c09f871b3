//===- vm/SimMemory.h - Simulated flat data memory --------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's byte-addressable data memory: globals, read-only data (where the
/// P-BOX lives), heap, and a downward-growing stack, each a contiguous
/// segment at a fixed base. Out-of-bounds writes *within* a segment silently
/// corrupt neighboring objects — exactly the hardware behavior DOP attacks
/// exploit — while accesses outside any segment trap like a real segfault.
///
/// Each segment's backing store is a ByteArena (support/Arena.h): a lazily
/// mapped region, so a VM is resident only for the pages it touches, and
/// writes maintain an exact touched-byte range, so returning a segment to
/// all zeroes costs O(bytes actually dirtied) — the mechanism behind both
/// the request-boundary hygiene metrics and a VM's reset to its load state
/// (Interpreter::resetToLoad).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_SIMMEMORY_H
#define SMOKESTACK_VM_SIMMEMORY_H

#include "support/Arena.h"
#include "vm/Trap.h"

#include <cstdint>
#include <string>

namespace smokestack {

/// Segment layout constants (fixed virtual addresses).
struct MemoryMap {
  static constexpr uint64_t GlobalsBase = 0x0001'0000;
  static constexpr uint64_t GlobalsSize = 0x0010'0000; // 1 MiB
  static constexpr uint64_t RODataBase = 0x0100'0000;
  static constexpr uint64_t RODataSize = 0x0100'0000; // 16 MiB (P-BOX)
  static constexpr uint64_t HeapBase = 0x0400'0000;
  static constexpr uint64_t HeapSize = 0x0100'0000; // 16 MiB
  static constexpr uint64_t StackTop = 0x0800'0000; // grows down
  static constexpr uint64_t StackSize = 0x0040'0000; // 4 MiB
  static constexpr uint64_t StackBase = StackTop - StackSize;
  /// Mapped bytes above the first frame, standing in for the argv/environ
  /// area of a real process — an overflow out of the top frame lands here
  /// instead of faulting immediately.
  static constexpr uint64_t StackHeadroom = 0x1000;
};

/// Flat simulated memory with segment-granular protection.
class SimMemory {
public:
  SimMemory();

  /// Reads \p Size bytes at \p Addr. Returns false (and sets the trap) on
  /// unmapped access.
  bool read(uint64_t Addr, void *Out, uint64_t Size);

  /// Writes \p Size bytes at \p Addr, honoring read-only protection unless
  /// \p IgnoreProtection (used only by the loader to populate the P-BOX).
  bool write(uint64_t Addr, const void *Data, uint64_t Size,
             bool IgnoreProtection = false);

  /// Loads a little-endian unsigned integer of \p Size bytes (1/2/4/8).
  bool loadInt(uint64_t Addr, uint64_t Size, uint64_t &Out);

  /// Stores the low \p Size bytes of \p Value.
  bool storeInt(uint64_t Addr, uint64_t Size, uint64_t Value);

  /// Reads a NUL-terminated string (bounded by \p MaxLen).
  bool readCString(uint64_t Addr, std::string &Out, uint64_t MaxLen = 1u << 20);

  /// True if [Addr, Addr+Size) lies inside one mapped segment.
  bool isMapped(uint64_t Addr, uint64_t Size) const;

  /// Trap state from the last failing access.
  TrapKind getTrap() const { return Trap; }
  const std::string &getTrapMessage() const { return TrapMessage; }
  void clearTrap() {
    Trap = TrapKind::None;
    TrapMessage.clear();
  }

  /// Bump-allocates \p Size bytes (16-byte aligned) from the heap; returns 0
  /// when exhausted. Hardened against wraparound: a Size large enough to
  /// overflow the 16-byte alignment round-up (or the cursor advance) is
  /// rejected as exhaustion instead of wrapping past the bounds check.
  uint64_t heapAlloc(uint64_t Size);

  /// Host memory resident for the four segments, whole pages (mincore over
  /// their mappings; see ByteArena::residentBytes).
  uint64_t residentBytes() const;

  /// Total heap bytes handed out so far (memory-overhead accounting).
  uint64_t heapBytesUsed() const { return Heap.Mem.cursor(); }

  /// Deepest heap cursor ever reached (allocation-pressure accounting;
  /// never reset by resetHeap).
  uint64_t heapHighWater() const { return Heap.Mem.highWater(); }

  /// Zeroes stack bytes from \p FromAddr (clamped into the segment) up to
  /// the top of the stack segment. Request-boundary hygiene after a trap:
  /// attacker-corrupted frames must not leak into the next request, and
  /// scrubbing only from the run's low-water mark keeps the cost
  /// proportional to what was actually touched. Returns the bytes zeroed
  /// (reset-cost observability).
  uint64_t scrubStack(uint64_t FromAddr);

  /// Zeroes the used heap prefix and resets the bump allocator — the heap
  /// acts as a per-request arena under the server-loop model, so request N
  /// cannot exhaust or contaminate the heap of request N+1. Exactly the
  /// allocated prefix [HeapBase, cursor) is zeroed, never more: heap bytes
  /// beyond the cursor that an out-of-bounds write dirtied survive the
  /// reset, the documented within-segment corruption semantics. Returns
  /// the bytes zeroed (reset-cost observability).
  uint64_t resetHeap();

  /// Direct host view of the stack segment for the JIT's inlined
  /// load/store fast path: the backing bytes plus the addresses of the
  /// segment's touched-range bounds (see ByteArena::touchedLoSlot). The
  /// host pointer is stable for this SimMemory's lifetime (the arena never
  /// reallocates), but callers re-fetch it per invocation anyway so
  /// compiled code stays free of per-VM pointers.
  struct JitStackView {
    uint8_t *Host = nullptr;
    uint64_t *TouchedLo = nullptr;
    uint64_t *TouchedHi = nullptr;
  };
  JitStackView jitStackView() {
    return {Stack.Mem.data(), Stack.Mem.touchedLoSlot(),
            Stack.Mem.touchedHiSlot()};
  }

  /// Host bytes of the read-only data segment (the P-BOX) for the JIT's
  /// inlined loads. Stable like the stack's; a read has no touched-range
  /// side effect, so a plain host read equals read().
  const uint8_t *jitRODataHost() const { return ROData.Mem.data(); }

  /// Returns the globals, heap and stack segments to all zeroes — each
  /// one's touched range is zeroed and collapsed — and rewinds the heap
  /// cursor; the first step of Interpreter::resetToLoad. Read-only data is
  /// left alone: only the loader writes it, so it still holds its load
  /// image. Returns the bytes zeroed (reset-cost observability).
  uint64_t zeroWritable();

private:
  /// Segment I's host bytes start I * HostStagger bytes (17 cache lines)
  /// into its mapping. With every base page-aligned, same-offset accesses
  /// to the stack, heap and globals share L1 sets and alias at 4 KiB;
  /// perfbench `calls` measured 56.8 µs/request staggered against 58.3
  /// page-aligned.
  static constexpr uint64_t HostStagger = 1088;

  struct Segment {
    const char *Name;
    uint64_t Base;
    bool Writable;
    ByteArena Mem;

    bool contains(uint64_t Addr, uint64_t Size) const {
      return Addr >= Base && Size <= Mem.capacity() &&
             Addr - Base <= Mem.capacity() - Size;
    }
  };

  Segment *findSegment(uint64_t Addr, uint64_t Size);
  const Segment *findSegment(uint64_t Addr, uint64_t Size) const;
  void raiseUnmapped(uint64_t Addr, uint64_t Size, const char *What);

  Segment Globals;
  Segment ROData;
  Segment Heap;
  Segment Stack;
  TrapKind Trap = TrapKind::None;
  std::string TrapMessage;
};

} // namespace smokestack

#endif // SMOKESTACK_VM_SIMMEMORY_H
