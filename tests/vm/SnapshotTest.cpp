//===- tests/vm/SnapshotTest.cpp - VM reset-to-load-state tests -----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The reset equivalence contract (Interpreter::resetToLoad): returning an
// Interpreter to its load state must be bitwise indistinguishable from
// constructing a fresh one and loading its globals — the memory image,
// heap cursor, global layout, counters, and every subsequent execution
// result. These tests pin the contract at the single-VM level; the
// pool-level differential proof lives in
// tests/runtime/SnapshotDifferentialTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "rng/Entropy.h"
#include "rng/Pseudo.h"
#include "support/Statistics.h"
#include "vm/Interpreter.h"

#include "gtest/gtest.h"

#include <cstring>
#include <vector>

using namespace smokestack;

namespace {

/// A module that dirties every dimension a reset must undo: a writable
/// global counter, a read-only table (lives in ROData like the P-BOX), a
/// heap allocation per request, stack frames, and an on-demand trap.
/// nop() returns without touching memory, so running it only loads the
/// globals; poke() stores into the read-only table.
void buildStatefulModule(Module &M) {
  IRBuilder B(M);
  GlobalVariable *Ctr = M.createGlobal("counter", B.i64(), {5});
  GlobalVariable *Tbl =
      M.createGlobal("table", B.getContext().getArrayTy(B.i8(), 256),
                     {0xAB, 0xCD, 0xEF}, /*ReadOnly=*/true);
  M.createGlobal("zeroed", B.i64(), {});
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

  Function *Nop = M.createFunction("nop", B.i64(), {});
  B.setInsertPoint(Nop->createBlock("entry"));
  B.ret(B.constI64(0));

  Function *Poke = M.createFunction("poke", B.i64(), {});
  B.setInsertPoint(Poke->createBlock("entry"));
  B.store(B.constI64(0x1122334455667788), Tbl);
  B.ret(B.constI64(0));
}

/// Dirties \p VM: a few clean requests, a trapped one, queued input.
void dirty(Interpreter &VM) {
  ASSERT_TRUE(VM.runRequest("driver", {0}).ok());
  ASSERT_TRUE(VM.runRequest("driver", {0}).ok());
  ASSERT_FALSE(VM.runRequest("driver", {1}).ok());
  VM.pushInputString("stale-attacker-record");
}

/// Expects every byte of the four segments of \p A and \p B to agree, read
/// through SimMemory::read (a page never touched reads as zeroes).
void expectMemoryEqual(Interpreter &A, Interpreter &B) {
  struct Range {
    const char *Name;
    uint64_t Base, Size;
  };
  const Range Segments[] = {
      {"globals", MemoryMap::GlobalsBase, MemoryMap::GlobalsSize},
      {"rodata", MemoryMap::RODataBase, MemoryMap::RODataSize},
      {"heap", MemoryMap::HeapBase, MemoryMap::HeapSize},
      {"stack", MemoryMap::StackBase, MemoryMap::StackSize}};
  constexpr uint64_t Chunk = 64 << 10;
  std::vector<uint8_t> BufA(Chunk), BufB(Chunk);
  for (const Range &R : Segments) {
    for (uint64_t Off = 0; Off < R.Size; Off += Chunk) {
      ASSERT_TRUE(A.memory().read(R.Base + Off, BufA.data(), Chunk));
      ASSERT_TRUE(B.memory().read(R.Base + Off, BufB.data(), Chunk));
      if (std::memcmp(BufA.data(), BufB.data(), Chunk) != 0) {
        ADD_FAILURE() << R.Name << " differs in the 64 KiB chunk at offset 0x"
                      << std::hex << Off;
        return;
      }
    }
  }
}

/// Runs \p Name and expects a ReadOnlyViolation trap.
void expectReadOnlyTrap(Interpreter &VM, const char *Name) {
  ExecResult R = VM.runRequest(Name);
  EXPECT_EQ(R.Trap, TrapKind::ReadOnlyViolation) << R.Message;
}

/// Expects the read-only table to hold its initializer, {AB, CD, EF, 0...}.
void expectTableIntact(Interpreter &VM) {
  uint64_t TblAddr = VM.getGlobalAddress("table");
  ASSERT_NE(TblAddr, 0u);
  uint8_t Tbl[16];
  ASSERT_TRUE(VM.memory().read(TblAddr, Tbl, sizeof(Tbl)));
  const uint8_t Want[16] = {0xAB, 0xCD, 0xEF};
  EXPECT_EQ(std::memcmp(Tbl, Want, sizeof(Tbl)), 0)
      << "the read-only table lost its load image";
}

TEST(SnapshotTest, RestoreReproducesPostLoadStateBitwise) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(11);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);
  Interpreter Fresh(M, &Rng);
  ASSERT_TRUE(Fresh.run("nop").ok());

  dirty(VM);
  VM.resetToLoad();

  expectMemoryEqual(VM, Fresh);
  EXPECT_EQ(VM.memory().heapBytesUsed(), Fresh.memory().heapBytesUsed());
  for (size_t I = 0, E = M.getNumGlobals(); I != E; ++I) {
    const std::string &Name = M.getGlobalAt(I)->getName();
    EXPECT_NE(VM.getGlobalAddress(Name), 0u) << Name;
    EXPECT_EQ(VM.getGlobalAddress(Name), Fresh.getGlobalAddress(Name))
        << Name;
  }
}

TEST(SnapshotTest, RestoredVmMatchesFreshVmOnIdenticalRequests) {
  Module M("snap");
  buildStatefulModule(M);

  // Reset VM: dirty, reset, then serve with a fresh stream.
  DeterministicEntropySource EntropyA(3);
  PseudoRandomSource RngA(EntropyA);
  Interpreter Reset(M, &RngA);
  dirty(Reset);
  Reset.resetToLoad();
  DeterministicEntropySource EntropyA2(77);
  PseudoRandomSource RngA2(EntropyA2);
  Reset.setRandomSource(&RngA2);

  // Fresh VM: constructed from scratch with the identically seeded stream.
  DeterministicEntropySource EntropyB(77);
  PseudoRandomSource RngB(EntropyB);
  Interpreter Fresh(M, &RngB);

  for (unsigned I = 0; I != 8; ++I) {
    uint64_t Fail = (I == 5) ? 1 : 0;
    ExecResult RA = Reset.runRequest("driver", {Fail});
    ExecResult RB = Fresh.runRequest("driver", {Fail});
    EXPECT_EQ(RA.Trap, RB.Trap) << "request " << I;
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << "request " << I;
    EXPECT_EQ(RA.Steps, RB.Steps) << "request " << I;
  }
  EXPECT_EQ(Reset.requestsServed(), Fresh.requestsServed());
  EXPECT_EQ(Reset.requestTraps(), Fresh.requestTraps());
  EXPECT_EQ(Reset.requestRecoveries(), Fresh.requestRecoveries());
  EXPECT_EQ(Reset.output(), Fresh.output());
}

TEST(SnapshotTest, ResetBeforeFirstRunMatchesFreshVm) {
  // A worker that dies before its first request is reset with its globals
  // never loaded: the reset loads them, and the VM must then serve exactly
  // as one that was never reset.
  Module M("snap");
  buildStatefulModule(M);
  const Statistic *Resets = findStatistic("vm.snapshot-restores");
  ASSERT_NE(Resets, nullptr);

  DeterministicEntropySource EntropyA(21);
  PseudoRandomSource RngA(EntropyA);
  Interpreter Reset(M, &RngA);
  uint64_t Before = Resets->value();
  Reset.resetToLoad();
  EXPECT_EQ(Resets->value(), Before + 1);

  DeterministicEntropySource EntropyL(21);
  PseudoRandomSource RngL(EntropyL);
  Interpreter Loaded(M, &RngL);
  ASSERT_TRUE(Loaded.run("nop").ok());
  expectMemoryEqual(Reset, Loaded);

  DeterministicEntropySource EntropyB(21);
  PseudoRandomSource RngB(EntropyB);
  Interpreter Fresh(M, &RngB);
  for (unsigned I = 0; I != 8; ++I) {
    uint64_t Fail = (I == 2) ? 1 : 0;
    ExecResult RA = Reset.runRequest("driver", {Fail});
    ExecResult RB = Fresh.runRequest("driver", {Fail});
    EXPECT_EQ(RA.Trap, RB.Trap) << "request " << I;
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << "request " << I;
    EXPECT_EQ(RA.Steps, RB.Steps) << "request " << I;
  }
  EXPECT_EQ(Reset.requestsServed(), Fresh.requestsServed());
  EXPECT_EQ(Reset.requestTraps(), Fresh.requestTraps());
  EXPECT_EQ(Reset.requestRecoveries(), Fresh.requestRecoveries());
  EXPECT_EQ(Reset.output(), Fresh.output());
  expectMemoryEqual(Reset, Fresh);
}

TEST(SnapshotTest, RestoreClearsTrapCountersAndQueuedInput) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(5);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);

  dirty(VM);
  EXPECT_GT(VM.requestsServed(), 0u);
  EXPECT_GT(VM.requestTraps(), 0u);

  VM.resetToLoad();
  EXPECT_EQ(VM.memory().getTrap(), TrapKind::None);
  EXPECT_EQ(VM.requestsServed(), 0u);
  EXPECT_EQ(VM.requestTraps(), 0u);
  EXPECT_EQ(VM.requestRecoveries(), 0u);
  EXPECT_TRUE(VM.output().empty());

  // The global's initial value is back and the layout survives.
  uint64_t CtrAddr = VM.getGlobalAddress("counter");
  ASSERT_NE(CtrAddr, 0u);
  uint64_t Ctr = 0;
  ASSERT_TRUE(VM.memory().loadInt(CtrAddr, 8, Ctr));
  EXPECT_EQ(Ctr, 5u) << "mutated global must revert to its initializer";

  // The read-only table, which the reset leaves alone, is intact.
  expectTableIntact(VM);
}

TEST(SnapshotTest, HeapCursorRestartsAtLoadState) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(9);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);

  uint64_t FirstFresh = VM.memory().heapAlloc(10);
  ASSERT_NE(FirstFresh, 0u);
  dirty(VM);
  VM.memory().heapAlloc(64);
  VM.resetToLoad();
  EXPECT_EQ(VM.memory().heapBytesUsed(), 0u);
  EXPECT_EQ(VM.memory().heapAlloc(10), FirstFresh)
      << "the bump cursor must restart exactly where loading left it";
}

TEST(SnapshotTest, ResetFaultsInOnlyTheLoadImage) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(9);
  PseudoRandomSource Rng(Entropy);

  // A never-run VM's reset makes it resident for its load image: exactly
  // the pages a freshly loaded VM holds.
  Interpreter Loaded(M, &Rng);
  uint64_t LoadedBase = Loaded.memory().residentBytes();
  ASSERT_TRUE(Loaded.run("nop").ok());
  uint64_t LoadImage = Loaded.memory().residentBytes() - LoadedBase;
  ASSERT_GT(LoadImage, 0u);
  Interpreter VM(M, &Rng);
  uint64_t Base = VM.memory().residentBytes();
  VM.resetToLoad();
  EXPECT_EQ(VM.memory().residentBytes() - Base, LoadImage);

  // A dirtied VM's reset zeroes pages that are already resident and
  // rewrites globals that are already resident: it faults in nothing.
  dirty(VM);
  uint64_t Dirty = VM.memory().residentBytes();
  ASSERT_GT(Dirty, Base + LoadImage);
  VM.resetToLoad();
  EXPECT_EQ(VM.memory().residentBytes(), Dirty)
      << "a reset faulted in pages beyond what the VM already held";
}

/// A read-only global stays read-only across a reset: the store traps and
/// the table keeps its load image, under the engine \p Opts selects.
void expectReadOnlySurvivesReset(const InterpreterOptions &Opts) {
  Module M("snap");
  buildStatefulModule(M);
  DeterministicEntropySource Entropy(13);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng, Opts);

  dirty(VM);
  expectReadOnlyTrap(VM, "poke");
  VM.resetToLoad();
  expectReadOnlyTrap(VM, "poke");
  expectTableIntact(VM);
  if (Opts.UseJit) {
    EXPECT_GT(VM.jitCompiledFunctions(), 0u) << "nothing ran compiled";
  }
}

TEST(SnapshotTest, ReadOnlyGlobalTrapsAfterResetDecoded) {
  expectReadOnlySurvivesReset(InterpreterOptions());
}

TEST(SnapshotTest, ReadOnlyGlobalTrapsAfterResetJit) {
  if (!jitAvailable())
    GTEST_SKIP() << "JIT unavailable on this host";
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  expectReadOnlySurvivesReset(Opts);
}

} // namespace
