//===- vm/Snapshot.cpp - Post-load VM state snapshot ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The whole snapshot lifecycle lives in this translation unit: SimMemory's
// image capture/restore and the Interpreter's bookkeeping reset around
// them, plus the reset-cost observability (DESIGN.md §12).
//
//===----------------------------------------------------------------------===//

#include "vm/Snapshot.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/Statistics.h"
#include "vm/Interpreter.h"
#include "vm/SimMemory.h"

#include <cassert>
#include <cstring>

using namespace smokestack;

namespace {

Statistic NumSnapshotCaptures("vm.snapshot-captures",
                              "VM snapshots captured");
Statistic NumRestores("vm.snapshot-restores",
                      "VM states restored from a snapshot");
Histogram RestoreBytes(
    "vm.snapshot-restore-bytes",
    "Bytes zeroed + copied per snapshot restore");
Histogram RestoreNanos(
    "vm.snapshot-restore-nanos",
    "Wall-clock nanoseconds per snapshot restore (obs timing only)");

} // namespace

//===----------------------------------------------------------------------===//
// SimMemory image capture / restore
//===----------------------------------------------------------------------===//

namespace {

void captureSegment(const ByteArena &Mem, VmSnapshot::SegmentImage &Img) {
  Img.TouchedLo = Mem.touchedLo();
  Img.TouchedHi = Mem.touchedHi();
  Img.Bytes.assign(Mem.data() + Img.TouchedLo, Mem.data() + Img.TouchedHi);
}

/// Zeroes \p Mem's current touched range and copies the captured image
/// back, leaving the segment bitwise identical to its capture-time state.
/// Returns the bytes written.
uint64_t restoreSegment(ByteArena &Mem, const VmSnapshot::SegmentImage &Img) {
  uint64_t Written = Mem.zeroTouched();
  if (!Img.Bytes.empty()) {
    std::memcpy(Mem.data() + Img.TouchedLo, Img.Bytes.data(),
                Img.Bytes.size());
    Written += Img.Bytes.size();
  }
  Mem.setTouched(Img.TouchedLo, Img.TouchedHi);
  return Written;
}

} // namespace

void SimMemory::captureImage(VmSnapshot &S) const {
  captureSegment(Globals.Mem, S.Globals);
  captureSegment(ROData.Mem, S.ROData);
  captureSegment(Heap.Mem, S.Heap);
  captureSegment(Stack.Mem, S.Stack);
  S.HeapCursor = Heap.Mem.cursor();
}

uint64_t SimMemory::restoreImage(const VmSnapshot &S) {
  uint64_t Written = restoreSegment(Globals.Mem, S.Globals);
  // Read-only data cannot have changed since capture — only the one-shot
  // global loader writes it (IgnoreProtection), and it ran before capture
  // — so the multi-MiB P-BOX image is skipped whenever the touched range
  // still matches. The range check keeps the skip safe against any future
  // loader-style writer: a grown range forces a full restore.
  if (ROData.Mem.touchedLo() != S.ROData.TouchedLo ||
      ROData.Mem.touchedHi() != S.ROData.TouchedHi)
    Written += restoreSegment(ROData.Mem, S.ROData);
  Written += restoreSegment(Heap.Mem, S.Heap);
  Written += restoreSegment(Stack.Mem, S.Stack);
  Heap.Mem.resetCursor();
  if (S.HeapCursor) {
    uint64_t Off = Heap.Mem.tryAllocate(S.HeapCursor);
    (void)Off;
    assert(Off == 0 && "captured heap cursor exceeds the heap segment");
  }
  return Written;
}

//===----------------------------------------------------------------------===//
// Interpreter snapshot lifecycle
//===----------------------------------------------------------------------===//

VmSnapshot Interpreter::captureSnapshot() {
  loadGlobals();
  VmSnapshot S;
  Memory.captureImage(S);
  S.GlobalAddresses = GlobalAddresses;
  ++NumSnapshotCaptures;
  return S;
}

void Interpreter::restoreFromSnapshot(const VmSnapshot &S) {
  bool Timed = obsTimingEnabled();
  uint64_t Start = Timed ? obsNowNanos() : 0;

  uint64_t Written = Memory.restoreImage(S);
  Memory.clearTrap();

  // Bookkeeping parity with a freshly constructed interpreter whose
  // globals are loaded: the address map comes from the snapshot (same
  // module, same deterministic layout), the request counters restart at
  // zero (callers bank them first, exactly as across a full rebuild), and
  // the per-run state is cleared. The decoded program (shared or owned)
  // and the JIT code cache survive deliberately — they are pure functions
  // of the module, so keeping them changes nothing observable and skips
  // re-decoding.
  GlobalAddresses = S.GlobalAddresses;
  GlobalsLoaded = true;
  InputQueue.clear();
  Output.clear();
  StackPointer = 0;
  StackLowWater = 0;
  CallCount = 0;
  RequestsServed = 0;
  RequestTraps = 0;
  RequestRecoveries = 0;

  ++NumRestores;
  RestoreBytes.record(Written);
  if (Timed)
    RestoreNanos.record(obsNowNanos() - Start);
}
