//===- tests/jit/JitRuntimeTest.cpp - Tiering, fuel, cancel, W^X ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT's runtime contract beyond pure result parity: invocation-count
/// tier promotion, fuel exhaustion and cooperative cancellation raised
/// *inside* compiled code at the interpreter's exact step, W^X on the code
/// pages (no mapping in the process is ever writable and executable at
/// once), and code-cache survival across a reset to the load state /
/// invalidation on program change.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "support/Statistics.h"
#include "vm/DecodedProgram.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

using namespace smokestack;

namespace {

#define SKIP_WITHOUT_JIT()                                                     \
  do {                                                                         \
    if (!jitAvailable())                                                       \
      GTEST_SKIP() << "JIT unavailable on this host";                          \
  } while (0)

/// Builds `main`: a counting loop summing 0..N-1 through a stack slot, so
/// compiled code exercises the inlined load/store fast path, branches, and
/// compares. Returns the module by filling \p M.
void buildLoopMain(Module &M, uint64_t N) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Done = F->createBlock("done");
  B.setInsertPoint(Entry);
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *Sum = B.alloca_(B.i64(), "sum");
  B.store(B.constI64(0), I);
  B.store(B.constI64(0), Sum);
  B.br(Loop);
  B.setInsertPoint(Loop);
  Value *IV = B.load(B.i64(), I);
  B.store(B.add(B.load(B.i64(), Sum), IV), Sum);
  B.store(B.add(IV, B.constI64(1)), I);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.add(IV, B.constI64(1)),
                  B.constI64(N)),
           Loop, Done);
  B.setInsertPoint(Done);
  B.ret(B.load(B.i64(), Sum));
}

} // namespace

TEST(JitRuntimeTest, TierPromotionAtThreshold) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, 100);
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 3;
  Interpreter VM(M, nullptr, Opts);

  ExecResult Baseline = VM.run("main");
  ASSERT_TRUE(Baseline.ok());
  // Runs 1-3 are below the threshold and stay interpreted; run 4 promotes.
  EXPECT_EQ(VM.jitCompiledFunctions(), 0u);
  VM.run("main");
  VM.run("main");
  EXPECT_EQ(VM.jitCompiledFunctions(), 0u);
  ExecResult Promoted = VM.run("main");
  EXPECT_EQ(VM.jitCompiledFunctions(), 1u);
  // The promoted run is indistinguishable from the interpreted ones.
  EXPECT_EQ(Promoted.ReturnValue, Baseline.ReturnValue);
  EXPECT_EQ(Promoted.Steps, Baseline.Steps);
}

TEST(JitRuntimeTest, FuelExhaustionInsideCompiledCode) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, 1u << 20); // far more iterations than the fuel allows
  InterpreterOptions DecodedOpts;
  DecodedOpts.Fuel = 5000;
  InterpreterOptions JitOpts = DecodedOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;

  Interpreter DecodedVM(M, nullptr, DecodedOpts), JitVM(M, nullptr, JitOpts);
  ExecResult DecodedR = DecodedVM.run("main"), JitR = JitVM.run("main");
  ASSERT_GT(JitVM.jitCompiledFunctions(), 0u);
  EXPECT_EQ(JitR.Trap, TrapKind::OutOfFuel);
  EXPECT_EQ(DecodedR.Trap, JitR.Trap);
  EXPECT_EQ(DecodedR.Message, JitR.Message);
  EXPECT_EQ(DecodedR.Steps, JitR.Steps);
}

TEST(JitRuntimeTest, CooperativeCancelInsideCompiledCode) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, 1u << 20);
  // 3000 is not a poll point, so both engines run until FuelLeft counts
  // down to 2048 (the first multiple of 1024) and must stop on exactly
  // that step with the same WorkerCrash trap.
  InterpreterOptions DecodedOpts;
  DecodedOpts.Fuel = 3000;
  InterpreterOptions JitOpts = DecodedOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;

  std::atomic<bool> Cancel{true};
  Interpreter DecodedVM(M, nullptr, DecodedOpts), JitVM(M, nullptr, JitOpts);
  DecodedVM.setCancelFlag(&Cancel);
  JitVM.setCancelFlag(&Cancel);
  ExecResult DecodedR = DecodedVM.run("main"), JitR = JitVM.run("main");
  ASSERT_GT(JitVM.jitCompiledFunctions(), 0u);
  EXPECT_EQ(JitR.Trap, TrapKind::WorkerCrash);
  EXPECT_EQ(DecodedR.Trap, JitR.Trap);
  EXPECT_EQ(DecodedR.Message, JitR.Message);
  EXPECT_EQ(DecodedR.Steps, JitR.Steps);
  EXPECT_EQ(DecodedR.Steps, 3000u - 2048u);
}

TEST(JitRuntimeTest, CancelSetMidRunStopsCompiledLoop) {
  // A second thread sets the flag while compiled code runs on a large
  // budget: the run stops at a later head that crosses a poll point, on
  // the poll point itself.
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, uint64_t{1} << 62);
  InterpreterOptions Opts;
  Opts.Fuel = (uint64_t{1} << 34) + 5;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;

  std::atomic<bool> Cancel{false}, Started{false};
  Interpreter VM(M, nullptr, Opts);
  VM.setCancelFlag(&Cancel);
  std::thread Setter([&] {
    while (!Started.load())
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Cancel.store(true, std::memory_order_relaxed);
  });
  Started.store(true);
  ExecResult R = VM.run("main");
  Setter.join();
  ASSERT_GT(VM.jitCompiledFunctions(), 0u);
  EXPECT_EQ(R.Trap, TrapKind::WorkerCrash) << R.Message;
  EXPECT_EQ((Opts.Fuel - R.Steps) % (JitCancelMask + 1), 0u) << R.Steps;
}

TEST(JitRuntimeTest, NoWritableExecutableMappings) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, 100);
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);
  ASSERT_TRUE(VM.run("main").ok());
  ASSERT_GT(VM.jitCompiledFunctions(), 0u);

  // With sealed code resident, no mapping in the whole process may be
  // writable and executable at once — the W^X contract of CodeArena.
  std::ifstream Maps("/proc/self/maps");
  ASSERT_TRUE(Maps.is_open()) << "cannot inspect /proc/self/maps";
  std::string Line;
  unsigned ExecMappings = 0;
  while (std::getline(Maps, Line)) {
    std::istringstream LS(Line);
    std::string Range, Perms;
    LS >> Range >> Perms;
    ASSERT_GE(Perms.size(), 3u) << Line;
    bool W = Perms.find('w') != std::string::npos;
    bool X = Perms.find('x') != std::string::npos;
    EXPECT_FALSE(W && X) << "writable+executable mapping: " << Line;
    if (X)
      ++ExecMappings;
  }
  EXPECT_GT(ExecMappings, 0u) << "maps scan saw no executable mappings at all";
}

TEST(JitRuntimeTest, CodeCacheSurvivesResetToLoad) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, 100);
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);

  ExecResult First = VM.run("main");
  ASSERT_TRUE(First.ok());
  uint64_t Compiled = VM.jitCompiledFunctions();
  ASSERT_GT(Compiled, 0u);

  // The cache is derived state: the reset rolls memory back but keeps the
  // compiled code, and the post-reset run reuses it bit-identically.
  VM.resetToLoad();
  EXPECT_EQ(VM.jitCompiledFunctions(), Compiled);
  ExecResult Again = VM.run("main");
  EXPECT_EQ(Again.Trap, First.Trap);
  EXPECT_EQ(Again.ReturnValue, First.ReturnValue);
  EXPECT_EQ(Again.Steps, First.Steps);
  EXPECT_EQ(VM.jitCompiledFunctions(), Compiled);
}

TEST(JitRuntimeTest, ProgramChangeInvalidatesCodeCache) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildLoopMain(M, 100);
  DecodedProgram ProgA(M), ProgB(M);
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);
  VM.setSharedProgram(&ProgA);
  ASSERT_TRUE(VM.run("main").ok());
  ASSERT_GT(VM.jitCompiledFunctions(), 0u);

  // Same program pointer: cache kept. New program: entries are keyed on
  // ProgA's DecodedFunctions and must be dropped, then rebuilt lazily.
  VM.setSharedProgram(&ProgA);
  EXPECT_GT(VM.jitCompiledFunctions(), 0u);
  VM.setSharedProgram(&ProgB);
  EXPECT_EQ(VM.jitCompiledFunctions(), 0u);
  ASSERT_TRUE(VM.run("main").ok());
  EXPECT_GT(VM.jitCompiledFunctions(), 0u);
}

TEST(JitRuntimeTest, JitOptionFallsBackWhenUnavailable) {
  // On non-JIT hosts UseJit must degrade to the decoded engine, not fail;
  // on JIT hosts this just checks the option plumbing stays consistent.
  Module M("t");
  buildLoopMain(M, 10);
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);
  ExecResult R = VM.run("main");
  EXPECT_TRUE(R.ok());
  if (!jitAvailable())
    EXPECT_EQ(VM.jitCompiledFunctions(), 0u);
}

TEST(JitRuntimeTest, NativeCallCounterIsExactAtEveryRequestBoundary) {
  // The code cache counts native invocations locally and flushes them into
  // jit.native-calls once per run. The batching must be invisible at
  // request boundaries: each delta equals the native invocations of that
  // request. main() calls leaf() five times; at threshold 3 a function's
  // first three invocations are interpreted and every later one is native.
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  Function *Leaf = M.createFunction("leaf", B.i64(), {B.i64()});
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.ret(B.add(Leaf->getArg(0), B.constI64(1)));
  Function *Main = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(Main->createBlock("entry"));
  Value *Acc = B.constI64(0);
  for (int I = 0; I != 5; ++I)
    Acc = B.call(Leaf, {Acc});
  B.ret(Acc);

  Statistic *NativeCalls = findStatistic("jit.native-calls");
  ASSERT_NE(NativeCalls, nullptr);
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 3;
  Interpreter VM(M, nullptr, Opts);
  // Request 1: leaf's 4th and 5th calls; 2-3: all of leaf's; 4+: main too.
  for (uint64_t Expected : {2u, 5u, 5u, 6u, 6u}) {
    uint64_t Before = NativeCalls->value();
    ExecResult R = VM.runRequest("main");
    ASSERT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ReturnValue, 5u);
    EXPECT_EQ(NativeCalls->value() - Before, Expected);
  }
}
