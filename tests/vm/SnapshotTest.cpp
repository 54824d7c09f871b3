//===- tests/vm/SnapshotTest.cpp - VM snapshot/restore tests --------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The snapshot/restore equivalence contract (vm/Snapshot.h): restoring an
// Interpreter from its post-load snapshot must be bitwise indistinguishable
// from constructing a fresh one — the memory image, heap cursor, global
// layout, counters, and every subsequent execution result. These tests pin
// the contract at the single-VM level; the pool-level differential proof
// lives in tests/runtime/SnapshotDifferentialTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "vm/Snapshot.h"

#include "ir/IRBuilder.h"
#include "rng/Entropy.h"
#include "rng/Pseudo.h"
#include "vm/Interpreter.h"

#include "gtest/gtest.h"

#include <unistd.h>

using namespace smokestack;

namespace {

/// A module that dirties every restorable dimension: a writable global
/// counter, a read-only table (lives in ROData like the P-BOX), a heap
/// allocation per request, stack frames, and an on-demand trap.
void buildStatefulModule(Module &M) {
  IRBuilder B(M);
  GlobalVariable *Ctr = M.createGlobal("counter", B.i64(), {5});
  M.createGlobal("table", B.getContext().getArrayTy(B.i8(), 256),
                 {0xAB, 0xCD, 0xEF}, /*ReadOnly=*/true);
  Function *Malloc = M.getOrInsertDeclaration("malloc", B.ptr(), {B.i64()});
  Function *Trap =
      M.getOrInsertDeclaration("smokestack.trap", B.voidTy(), {B.i64()});
  Function *Rand = M.getOrInsertDeclaration("smokestack.rand", B.i64(), {});

  // driver(fail): bump the counter, alloc 4 KiB, store a draw into a local,
  // then trap or return the counter value.
  Function *Driver = M.createFunction("driver", B.i64(), {B.i64()});
  BasicBlock *Entry = Driver->createBlock("entry");
  BasicBlock *Boom = Driver->createBlock("boom");
  BasicBlock *Fine = Driver->createBlock("fine");
  B.setInsertPoint(Entry);
  Value *Next = B.add(B.load(B.i64(), Ctr), B.constI64(1));
  B.store(Next, Ctr);
  AllocaInst *Local = B.alloca_(B.getContext().getArrayTy(B.i8(), 128), "l");
  B.store(B.call(Rand, {}), Local);
  B.call(Malloc, {B.constI64(4096)});
  B.condBr(B.icmp(ICmpInst::Predicate::NE, Driver->getArg(0), B.constI64(0)),
           Boom, Fine);
  B.setInsertPoint(Boom);
  B.call(Trap, {B.constI64(0)});
  B.ret(B.constI64(0));
  B.setInsertPoint(Fine);
  B.ret(Next);
}

/// Dirties \p VM: a few clean requests, a trapped one, queued input.
void dirty(Interpreter &VM) {
  ASSERT_TRUE(VM.runRequest("driver", {0}).ok());
  ASSERT_TRUE(VM.runRequest("driver", {0}).ok());
  ASSERT_FALSE(VM.runRequest("driver", {1}).ok());
  VM.pushInputString("stale-attacker-record");
}

void expectImagesEqual(const VmSnapshot::SegmentImage &A,
                       const VmSnapshot::SegmentImage &B, const char *What) {
  EXPECT_EQ(A.TouchedLo, B.TouchedLo) << What;
  EXPECT_EQ(A.TouchedHi, B.TouchedHi) << What;
  EXPECT_EQ(A.Bytes, B.Bytes) << What;
}

TEST(SnapshotTest, RestoreReproducesPostLoadStateBitwise) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(11);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);

  VmSnapshot S = VM.captureSnapshot();
  EXPECT_GT(S.imageBytes(), 0u) << "globals must produce a non-empty image";

  dirty(VM);
  VM.restoreFromSnapshot(S);

  // Re-capturing after restore must reproduce the original image exactly:
  // same touched ranges, same bytes, same cursor, same layout.
  VmSnapshot S2 = VM.captureSnapshot();
  expectImagesEqual(S.Globals, S2.Globals, "globals image");
  expectImagesEqual(S.ROData, S2.ROData, "rodata image");
  expectImagesEqual(S.Heap, S2.Heap, "heap image");
  expectImagesEqual(S.Stack, S2.Stack, "stack image");
  EXPECT_EQ(S.HeapCursor, S2.HeapCursor);
  EXPECT_EQ(S.GlobalAddresses.size(), S2.GlobalAddresses.size());
  for (const auto &[Name, Addr] : S.GlobalAddresses) {
    auto It = S2.GlobalAddresses.find(Name);
    ASSERT_NE(It, S2.GlobalAddresses.end()) << Name;
    EXPECT_EQ(It->second, Addr) << Name;
  }
}

TEST(SnapshotTest, RestoredVmMatchesFreshVmOnIdenticalRequests) {
  Module M("snap");
  buildStatefulModule(M);

  // Restored VM: capture, dirty, restore, then serve with a fresh stream.
  DeterministicEntropySource EntropyA(3);
  PseudoRandomSource RngA(EntropyA);
  Interpreter Restored(M, &RngA);
  VmSnapshot S = Restored.captureSnapshot();
  dirty(Restored);
  Restored.restoreFromSnapshot(S);
  DeterministicEntropySource EntropyA2(77);
  PseudoRandomSource RngA2(EntropyA2);
  Restored.setRandomSource(&RngA2);

  // Fresh VM: constructed from scratch with the identically seeded stream.
  DeterministicEntropySource EntropyB(77);
  PseudoRandomSource RngB(EntropyB);
  Interpreter Fresh(M, &RngB);

  for (unsigned I = 0; I != 8; ++I) {
    uint64_t Fail = (I == 5) ? 1 : 0;
    ExecResult RA = Restored.runRequest("driver", {Fail});
    ExecResult RB = Fresh.runRequest("driver", {Fail});
    EXPECT_EQ(RA.Trap, RB.Trap) << "request " << I;
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << "request " << I;
    EXPECT_EQ(RA.Steps, RB.Steps) << "request " << I;
  }
  EXPECT_EQ(Restored.requestsServed(), Fresh.requestsServed());
  EXPECT_EQ(Restored.requestTraps(), Fresh.requestTraps());
  EXPECT_EQ(Restored.requestRecoveries(), Fresh.requestRecoveries());
  EXPECT_EQ(Restored.output(), Fresh.output());
}

TEST(SnapshotTest, RestoreClearsTrapCountersAndQueuedInput) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(5);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);
  VmSnapshot S = VM.captureSnapshot();

  dirty(VM);
  EXPECT_GT(VM.requestsServed(), 0u);
  EXPECT_GT(VM.requestTraps(), 0u);

  VM.restoreFromSnapshot(S);
  EXPECT_EQ(VM.memory().getTrap(), TrapKind::None);
  EXPECT_EQ(VM.requestsServed(), 0u);
  EXPECT_EQ(VM.requestTraps(), 0u);
  EXPECT_EQ(VM.requestRecoveries(), 0u);
  EXPECT_TRUE(VM.output().empty());

  // The global's captured initial value is back and the layout survives.
  uint64_t CtrAddr = VM.getGlobalAddress("counter");
  ASSERT_NE(CtrAddr, 0u);
  uint64_t Ctr = 0;
  ASSERT_TRUE(VM.memory().loadInt(CtrAddr, 8, Ctr));
  EXPECT_EQ(Ctr, 5u) << "mutated global must revert to its initializer";

  // The read-only table (ROData restore-skip path) is intact.
  uint64_t TblAddr = VM.getGlobalAddress("table");
  ASSERT_NE(TblAddr, 0u);
  uint64_t Tbl = 0;
  ASSERT_TRUE(VM.memory().loadInt(TblAddr, 4, Tbl));
  EXPECT_EQ(Tbl & 0xFFFFFFu, 0xEFCDABu) << "little-endian {AB,CD,EF}";
}

TEST(SnapshotTest, HeapCursorRestartsAtCaptureState) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(9);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);
  VmSnapshot S = VM.captureSnapshot();

  uint64_t FirstFresh = VM.memory().heapAlloc(10);
  ASSERT_NE(FirstFresh, 0u);
  dirty(VM);
  VM.restoreFromSnapshot(S);
  EXPECT_EQ(VM.memory().heapBytesUsed(), S.HeapCursor);
  EXPECT_EQ(VM.memory().heapAlloc(10), FirstFresh)
      << "the bump cursor must restart exactly where capture left it";
}

TEST(SnapshotTest, RestoreFaultsInOnlyTheCapturedImage) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(9);
  PseudoRandomSource Rng(Entropy);
  Interpreter Donor(M, &Rng);
  VmSnapshot S = Donor.captureSnapshot();
  dirty(Donor);

  Interpreter VM(M, &Rng);
  VM.restoreFromSnapshot(S);
  // Each captured range rounded up to pages, plus the page an unaligned
  // range can straddle into.
  const uint64_t Page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  uint64_t Bound = 0;
  for (const VmSnapshot::SegmentImage *Img :
       {&S.Globals, &S.ROData, &S.Heap, &S.Stack})
    if (Img->size())
      Bound += (Img->size() + Page - 1) / Page * Page + Page;
  ASSERT_GT(Bound, 0u);
  EXPECT_GT(VM.memory().residentBytes(), 0u);
  EXPECT_LE(VM.memory().residentBytes(), Bound)
      << "restore writes only the captured image, whatever the donor dirtied";
}

} // namespace
