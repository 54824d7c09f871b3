//===- vm/SimMemory.cpp - Simulated flat data memory ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/SimMemory.h"

#include "support/Align.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <cassert>
#include <cstring>

using namespace smokestack;

const char *smokestack::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::UnmappedAccess:
    return "unmapped-access";
  case TrapKind::ReadOnlyViolation:
    return "read-only-violation";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::FunctionIdViolation:
    return "function-id-violation";
  case TrapKind::CanaryViolation:
    return "canary-violation";
  case TrapKind::ExplicitTrap:
    return "explicit-trap";
  case TrapKind::DivisionByZero:
    return "division-by-zero";
  case TrapKind::OutOfFuel:
    return "out-of-fuel";
  case TrapKind::BadCall:
    return "bad-call";
  case TrapKind::RandomnessFailure:
    return "randomness-failure";
  case TrapKind::WorkerCrash:
    return "worker-crash";
  }
  smokestack_unreachable("unknown trap kind");
}

SimMemory::SimMemory()
    : Globals{"globals", MemoryMap::GlobalsBase, true,
              ByteArena(MemoryMap::GlobalsSize, 0 * HostStagger)},
      ROData{"rodata", MemoryMap::RODataBase, false,
             ByteArena(MemoryMap::RODataSize, 1 * HostStagger)},
      Heap{"heap", MemoryMap::HeapBase, true,
           ByteArena(MemoryMap::HeapSize, 2 * HostStagger)},
      Stack{"stack", MemoryMap::StackBase, true,
            ByteArena(MemoryMap::StackSize, 3 * HostStagger)} {}

uint64_t SimMemory::residentBytes() const {
  return Globals.Mem.residentBytes() + ROData.Mem.residentBytes() +
         Heap.Mem.residentBytes() + Stack.Mem.residentBytes();
}

SimMemory::Segment *SimMemory::findSegment(uint64_t Addr, uint64_t Size) {
  // Segment bases are 16 MiB-aligned and no segment spans a 16 MiB block
  // boundary it does not own, so the top address byte picks the candidate
  // directly; contains() then applies the exact bounds (this is the only
  // dispatch on the load/store hot path, replacing a four-segment scan).
  Segment *Seg;
  switch (Addr >> 24) {
  case 0x00:
    Seg = &Globals;
    break;
  case 0x01:
    Seg = &ROData;
    break;
  case 0x04:
    Seg = &Heap;
    break;
  case 0x07:
    Seg = &Stack;
    break;
  default:
    return nullptr;
  }
  return Seg->contains(Addr, Size) ? Seg : nullptr;
}

const SimMemory::Segment *SimMemory::findSegment(uint64_t Addr,
                                                 uint64_t Size) const {
  return const_cast<SimMemory *>(this)->findSegment(Addr, Size);
}

void SimMemory::raiseUnmapped(uint64_t Addr, uint64_t Size, const char *What) {
  Trap = TrapKind::UnmappedAccess;
  TrapMessage = formatString("%s of %llu bytes at 0x%llx hit unmapped memory",
                             What, (unsigned long long)Size,
                             (unsigned long long)Addr);
}

bool SimMemory::read(uint64_t Addr, void *Out, uint64_t Size) {
  const Segment *Seg = findSegment(Addr, Size);
  if (!Seg) {
    raiseUnmapped(Addr, Size, "read");
    return false;
  }
  std::memcpy(Out, Seg->Mem.data() + (Addr - Seg->Base), Size);
  return true;
}

bool SimMemory::write(uint64_t Addr, const void *Data, uint64_t Size,
                      bool IgnoreProtection) {
  Segment *Seg = findSegment(Addr, Size);
  if (!Seg) {
    raiseUnmapped(Addr, Size, "write");
    return false;
  }
  if (!Seg->Writable && !IgnoreProtection) {
    Trap = TrapKind::ReadOnlyViolation;
    TrapMessage =
        formatString("write of %llu bytes at 0x%llx into read-only '%s'",
                     (unsigned long long)Size, (unsigned long long)Addr,
                     Seg->Name);
    return false;
  }
  uint64_t Off = Addr - Seg->Base;
  std::memcpy(Seg->Mem.data() + Off, Data, Size);
  Seg->Mem.noteTouched(Off, Off + Size);
  return true;
}

bool SimMemory::loadInt(uint64_t Addr, uint64_t Size, uint64_t &Out) {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "scalar loads are 1/2/4/8 bytes");
  uint64_t Value = 0;
  if (!read(Addr, &Value, Size))
    return false;
  Out = Value;
  return true;
}

bool SimMemory::storeInt(uint64_t Addr, uint64_t Size, uint64_t Value) {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "scalar stores are 1/2/4/8 bytes");
  return write(Addr, &Value, Size);
}

bool SimMemory::readCString(uint64_t Addr, std::string &Out,
                            uint64_t MaxLen) {
  Out.clear();
  for (uint64_t I = 0; I != MaxLen; ++I) {
    uint8_t Byte;
    if (!read(Addr + I, &Byte, 1))
      return false;
    if (Byte == 0)
      return true;
    Out.push_back(static_cast<char>(Byte));
  }
  return true;
}

bool SimMemory::isMapped(uint64_t Addr, uint64_t Size) const {
  return findSegment(Addr, Size) != nullptr;
}

uint64_t SimMemory::scrubStack(uint64_t FromAddr) {
  uint64_t From = FromAddr < MemoryMap::StackBase ? MemoryMap::StackBase
                                                  : FromAddr;
  if (From >= MemoryMap::StackTop)
    return 0;
  uint64_t Zeroed = MemoryMap::StackTop - From;
  std::memset(Stack.Mem.data() + (From - MemoryMap::StackBase), 0, Zeroed);
  // Scrubbing writes zeroes — the segment's fresh-state value — so the
  // touched range must NOT widen here: it brackets potentially-nonzero
  // bytes, and widening it would inflate every later reset.
  return Zeroed;
}

uint64_t SimMemory::resetHeap() {
  uint64_t Zeroed = Heap.Mem.cursor();
  if (Zeroed)
    std::memset(Heap.Mem.data(), 0, Zeroed);
  Heap.Mem.resetCursor();
  return Zeroed;
}

uint64_t SimMemory::zeroWritable() {
  uint64_t Zeroed = Globals.Mem.zeroTouched() + Heap.Mem.zeroTouched() +
                    Stack.Mem.zeroTouched();
  Heap.Mem.resetCursor();
  return Zeroed;
}

uint64_t SimMemory::heapAlloc(uint64_t Size) {
  if (Size == 0)
    Size = 1;
  // alignTo(Size, 16) wraps to 0 for Size > UINT64_MAX - 15, which used to
  // slip past the exhaustion check and hand out a bogus allocation backed
  // by no space. Any Size beyond the segment can never fit, so reject it
  // before the round-up can overflow; tryAllocate() phrases its own check
  // against remaining capacity, so the cursor advance cannot wrap either.
  if (Size > MemoryMap::HeapSize)
    return 0;
  uint64_t Offset = Heap.Mem.tryAllocate(alignTo(Size, 16));
  if (Offset == ByteArena::NoSpace)
    return 0;
  return MemoryMap::HeapBase + Offset;
}
