//===- tests/vm/SimMemoryTest.cpp - Simulated memory tests ---------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/SimMemory.h"

#include <cstring>
#include <gtest/gtest.h>
#include <new>

using namespace smokestack;

TEST(SimMemoryTest, ReadWriteRoundTrip) {
  SimMemory Mem;
  uint64_t Addr = MemoryMap::GlobalsBase + 128;
  const char Data[] = "hello";
  ASSERT_TRUE(Mem.write(Addr, Data, sizeof(Data)));
  char Out[sizeof(Data)];
  ASSERT_TRUE(Mem.read(Addr, Out, sizeof(Out)));
  EXPECT_STREQ(Out, "hello");
}

TEST(SimMemoryTest, UnmappedAccessTraps) {
  SimMemory Mem;
  uint8_t Byte = 0;
  EXPECT_FALSE(Mem.read(0x10, &Byte, 1)) << "null page is unmapped";
  EXPECT_EQ(Mem.getTrap(), TrapKind::UnmappedAccess);
  Mem.clearTrap();
  EXPECT_FALSE(Mem.write(0xdeadbeef00, &Byte, 1));
  EXPECT_EQ(Mem.getTrap(), TrapKind::UnmappedAccess);
}

TEST(SimMemoryTest, CrossSegmentBoundaryTraps) {
  SimMemory Mem;
  // A write straddling the end of the globals segment must fault, like a
  // guard page: segments are not adjacent.
  uint64_t Last = MemoryMap::GlobalsBase + MemoryMap::GlobalsSize - 4;
  uint64_t Value = 0;
  EXPECT_TRUE(Mem.write(Last, &Value, 4));
  EXPECT_FALSE(Mem.write(Last, &Value, 8));
  EXPECT_EQ(Mem.getTrap(), TrapKind::UnmappedAccess);
}

TEST(SimMemoryTest, ReadOnlySegmentRejectsWrites) {
  SimMemory Mem;
  uint32_t Value = 7;
  EXPECT_FALSE(Mem.write(MemoryMap::RODataBase, &Value, 4));
  EXPECT_EQ(Mem.getTrap(), TrapKind::ReadOnlyViolation);
  Mem.clearTrap();
  // The loader bypass must work (this is how the P-BOX is populated).
  EXPECT_TRUE(Mem.write(MemoryMap::RODataBase, &Value, 4,
                        /*IgnoreProtection=*/true));
  uint32_t Out = 0;
  EXPECT_TRUE(Mem.read(MemoryMap::RODataBase, &Out, 4));
  EXPECT_EQ(Out, 7u);
}

TEST(SimMemoryTest, WithinSegmentOverflowSilentlyCorrupts) {
  SimMemory Mem;
  // This property is the foundation of every attack experiment: adjacent
  // objects inside one segment have no red zones.
  uint64_t BufAddr = MemoryMap::StackBase + 100;
  uint64_t VictimAddr = BufAddr + 16;
  uint64_t Sentinel = 0x1122334455667788ULL;
  ASSERT_TRUE(Mem.write(VictimAddr, &Sentinel, 8));
  uint8_t Overflow[24];
  std::memset(Overflow, 0xAA, sizeof(Overflow));
  ASSERT_TRUE(Mem.write(BufAddr, Overflow, sizeof(Overflow)))
      << "24-byte write into a 16-byte gap must NOT fault";
  uint64_t Clobbered = 0;
  ASSERT_TRUE(Mem.read(VictimAddr, &Clobbered, 8));
  EXPECT_EQ(Clobbered & 0xFFFFFFFFFFFFFF00ULL, 0xAAAAAAAAAAAAAA00ULL >> 8 << 8);
}

TEST(SimMemoryTest, LoadStoreIntWidths) {
  SimMemory Mem;
  uint64_t Addr = MemoryMap::HeapBase + 64;
  ASSERT_TRUE(Mem.storeInt(Addr, 8, 0x0102030405060708ULL));
  uint64_t Out = 0;
  ASSERT_TRUE(Mem.loadInt(Addr, 4, Out));
  EXPECT_EQ(Out, 0x05060708u) << "little-endian low word";
  ASSERT_TRUE(Mem.loadInt(Addr, 1, Out));
  EXPECT_EQ(Out, 0x08u);
  ASSERT_TRUE(Mem.storeInt(Addr + 16, 2, 0xBEEF));
  ASSERT_TRUE(Mem.loadInt(Addr + 16, 2, Out));
  EXPECT_EQ(Out, 0xBEEFu);
}

TEST(SimMemoryTest, ReadCString) {
  SimMemory Mem;
  uint64_t Addr = MemoryMap::GlobalsBase;
  ASSERT_TRUE(Mem.write(Addr, "abc\0def", 8));
  std::string Out;
  ASSERT_TRUE(Mem.readCString(Addr, Out));
  EXPECT_EQ(Out, "abc");
  ASSERT_TRUE(Mem.readCString(Addr + 4, Out));
  EXPECT_EQ(Out, "def");
}

TEST(SimMemoryTest, HeapAllocAlignsAndExhausts) {
  SimMemory Mem;
  uint64_t A = Mem.heapAlloc(10);
  uint64_t B = Mem.heapAlloc(1);
  EXPECT_EQ(A % 16, 0u);
  EXPECT_EQ(B, A + 16u) << "10 bytes round up to one 16-byte granule";
  EXPECT_EQ(Mem.heapAlloc(MemoryMap::HeapSize), 0u) << "exhaustion returns 0";
}

TEST(SimMemoryTest, HeapAllocRejectsOverflowingSizes) {
  SimMemory Mem;
  uint64_t Before = Mem.heapBytesUsed();
  // A size within a granule of UINT64_MAX used to wrap to a tiny value
  // inside alignTo and slip past the bounds check. It must fail cleanly.
  EXPECT_EQ(Mem.heapAlloc(UINT64_MAX - 5), 0u);
  EXPECT_EQ(Mem.heapAlloc(UINT64_MAX), 0u);
  EXPECT_EQ(Mem.heapAlloc(MemoryMap::HeapSize + 1), 0u);
  EXPECT_EQ(Mem.heapBytesUsed(), Before)
      << "failed allocations must not move the cursor";
  // A legitimate allocation still works after the rejections.
  EXPECT_NE(Mem.heapAlloc(32), 0u);
}

TEST(SimMemoryTest, ResetHeapZeroesExactlyTheAllocatedPrefix) {
  SimMemory Mem;
  uint64_t A = Mem.heapAlloc(16);
  uint64_t Sentinel = 0x4141414141414141ULL;
  ASSERT_TRUE(Mem.write(A, &Sentinel, 8));
  // An out-of-bounds scribble past the cursor (within-segment, so no trap).
  uint64_t Beyond = A + 64;
  ASSERT_TRUE(Mem.write(Beyond, &Sentinel, 8));
  EXPECT_EQ(Mem.resetHeap(), 16u) << "reset reports the allocated prefix";
  uint64_t Out = 1;
  ASSERT_TRUE(Mem.read(A, &Out, 8));
  EXPECT_EQ(Out, 0u) << "allocated prefix is scrubbed";
  ASSERT_TRUE(Mem.read(Beyond, &Out, 8));
  EXPECT_EQ(Out, Sentinel)
      << "bytes past the cursor survive reset (documented attack semantics)";
}

TEST(SimMemoryTest, StackSegmentBounds) {
  SimMemory Mem;
  uint64_t Value = 1;
  EXPECT_TRUE(Mem.write(MemoryMap::StackTop - 8, &Value, 8));
  EXPECT_FALSE(Mem.write(MemoryMap::StackTop, &Value, 8))
      << "above the stack top is unmapped";
  EXPECT_TRUE(Mem.write(MemoryMap::StackBase, &Value, 8));
  EXPECT_FALSE(Mem.write(MemoryMap::StackBase - 8, &Value, 8))
      << "below the stack base is unmapped (guard)";
}

TEST(SimMemoryTest, FreshMemoryIsNotResident) {
  // The four segments span 37 MiB of mapping; none of it is written at
  // construction, so only what the VM touches ever becomes resident.
  SimMemory Mem;
  EXPECT_LT(Mem.residentBytes(), 64u << 10);
  uint64_t Value = 1;
  ASSERT_TRUE(Mem.write(MemoryMap::StackTop - 8, &Value, 8));
  EXPECT_GT(Mem.residentBytes(), 0u) << "a write faults its page in";
  EXPECT_LT(Mem.residentBytes(), 64u << 10);
}

TEST(SimMemoryTest, FreshSegmentsReadZero) {
  SimMemory Mem;
  for (uint64_t Addr : {MemoryMap::GlobalsBase, MemoryMap::RODataBase,
                        MemoryMap::HeapBase + MemoryMap::HeapSize - 8,
                        MemoryMap::StackBase}) {
    uint64_t Out = 1;
    ASSERT_TRUE(Mem.loadInt(Addr, 8, Out));
    EXPECT_EQ(Out, 0u) << std::hex << Addr;
  }
}

TEST(SimMemoryTest, UnmappableArenaThrowsBadAlloc) {
  EXPECT_THROW(ByteArena(uint64_t(1) << 62, 0), std::bad_alloc);
}
