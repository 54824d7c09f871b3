//===- vm/Snapshot.h - Post-load VM state snapshot -------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A VmSnapshot freezes an Interpreter's post-load state — the touched
/// content of every SimMemory segment, the heap cursor, and the global
/// address map — so that returning a VM to "freshly constructed + globals
/// loaded" is a delta restore over the dirtied bytes instead of fresh
/// segment mappings, a full module re-layout, and a page fault for every
/// page the VM touches again.
///
/// Why restore equals reconstruction, bit for bit: a fresh SimMemory is
/// all zeroes, loading globals writes a layout that is a pure function of
/// the Module (vm/DecodedProgram.h's layoutModuleGlobals), and every write
/// since capture is bracketed by the segments' touched ranges. Zeroing the
/// touched range and copying the captured image back therefore reproduces
/// the post-load byte image exactly; restoring the captured address map
/// reproduces the layout a rebuilt interpreter would recompute. The
/// snapshot suite (ctest label `snapshot`) pins this down: SnapshotTest
/// compares a restored VM with a freshly constructed one byte for byte and
/// request for request, and the pool campaigns of SnapshotDifferentialTest
/// keep outcomes and books identical at any worker count, under chaos.
///
/// Lifecycle: capture once after construction (WorkerPool captures from
/// its first worker and shares the snapshot read-only across all workers
/// — it is immutable after capture, so concurrent restores need no
/// synchronization); restore on every crash-rebuild. The snapshot must be
/// built from the same Module the restored interpreter executes.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_SNAPSHOT_H
#define SMOKESTACK_VM_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace smokestack {

/// Captured post-load VM state (see Interpreter::captureSnapshot).
struct VmSnapshot {
  /// One segment's touched content at capture time: the bytes of
  /// [TouchedLo, TouchedHi) (segment-relative offsets). Untouched bytes
  /// are zero by construction and need no image.
  struct SegmentImage {
    uint64_t TouchedLo = 0;
    uint64_t TouchedHi = 0;
    std::vector<uint8_t> Bytes;

    uint64_t size() const { return TouchedHi - TouchedLo; }
  };

  SegmentImage Globals;
  SegmentImage ROData;
  SegmentImage Heap;
  SegmentImage Stack;
  /// Heap bump-cursor position at capture time.
  uint64_t HeapCursor = 0;
  /// The module's global layout at capture time (a pure function of the
  /// module, so sharing it skips re-running layoutModuleGlobals).
  std::unordered_map<std::string, uint64_t> GlobalAddresses;

  /// Total captured image bytes (footprint accounting).
  uint64_t imageBytes() const {
    return Globals.size() + ROData.size() + Heap.size() + Stack.size();
  }
};

} // namespace smokestack

#endif // SMOKESTACK_VM_SNAPSHOT_H
