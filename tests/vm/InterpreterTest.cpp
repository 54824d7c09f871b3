//===- tests/vm/InterpreterTest.cpp - Interpreter tests ------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "common/RandomProgramGen.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>
#include <map>

using namespace smokestack;

namespace {

/// i64 sumTo(i64 n): alloca-based loop summing 0..n-1.
void buildSumTo(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("sumTo", B.i64(), {B.i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Cond = F->createBlock("cond");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  AllocaInst *S = B.alloca_(B.i64(), "s");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  B.store(B.constI64(0), S);
  B.store(B.constI64(0), I);
  B.br(Cond);
  B.setInsertPoint(Cond);
  Value *IV = B.load(B.i64(), I);
  B.condBr(B.icmp(ICmpInst::Predicate::SLT, IV, F->getArg(0)), Body, Exit);
  B.setInsertPoint(Body);
  B.store(B.add(B.load(B.i64(), S), B.load(B.i64(), I)), S);
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Cond);
  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), S));
}

/// i64 fib(i64 n): naive recursion, exercises call/return and frame reuse.
void buildFib(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("fib", B.i64(), {B.i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Base = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  B.setInsertPoint(Entry);
  B.condBr(B.icmp(ICmpInst::Predicate::SLT, F->getArg(0), B.constI64(2)),
           Base, Rec);
  B.setInsertPoint(Base);
  B.ret(F->getArg(0));
  B.setInsertPoint(Rec);
  Value *A = B.call(F, {B.sub(F->getArg(0), B.constI64(1))});
  Value *C = B.call(F, {B.sub(F->getArg(0), B.constI64(2))});
  B.ret(B.add(A, C));
}

/// Records every alloca placement.
class RecordingObserver : public LayoutObserver {
public:
  struct Placement {
    std::string Func;
    std::string Var;
    uint64_t Addr;
    uint64_t Size;
  };
  std::vector<Placement> Placements;

  void onAlloca(const Function &F, const AllocaInst &Alloca, uint64_t Addr,
                uint64_t Size) override {
    Placements.push_back({F.getName(), Alloca.getName(), Addr, Size});
  }
};

} // namespace

TEST(InterpreterTest, LoopArithmetic) {
  Module M("t");
  buildSumTo(M);
  ASSERT_TRUE(verifyModule(M));
  Interpreter VM(M);
  ExecResult R = VM.run("sumTo", {10});
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 45u);
}

TEST(InterpreterTest, RecursionAndFrameTeardown) {
  Module M("t");
  buildFib(M);
  Interpreter VM(M);
  ExecResult R = VM.run("fib", {15});
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 610u);
}

TEST(InterpreterTest, NarrowIntegerSemantics) {
  // i8 arithmetic wraps at 256; signed compare sees 0xFF as -1.
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("narrow", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Value *A = B.add(B.constI8(200), B.constI8(100)); // 300 & 0xff = 44
  Value *IsNeg = B.icmp(ICmpInst::Predicate::SLT, B.constI8(0xFF),
                        B.constI8(0)); // -1 < 0 -> 1
  Value *Wide = B.zext(B.i64(), A);
  Value *NegWide = B.zext(B.i64(), IsNeg);
  B.ret(B.add(Wide, B.mul(NegWide, B.constI64(1000))));
  Interpreter VM(M);
  ExecResult R = VM.run("narrow");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 1044u);
}

TEST(InterpreterTest, SextTruncRoundTrip) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("sext", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Value *Neg = B.trunc(B.i8(), B.constI64(0xF0)); // -16 as i8
  B.ret(B.sext(B.i64(), Neg));
  Interpreter VM(M);
  EXPECT_EQ(static_cast<int64_t>(VM.run("sext").ReturnValue), -16);
}

TEST(InterpreterTest, FloatingPointOps) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("fp", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Value *X = B.binop(BinaryInst::BinOp::FMul, B.constF64(2.5),
                     B.constF64(4.0)); // 10.0
  Value *Y = B.binop(BinaryInst::BinOp::FAdd, X, B.constF64(0.5)); // 10.5
  B.ret(B.cast_(CastInst::CastOp::FPToSI, B.i64(), Y));
  Interpreter VM(M);
  EXPECT_EQ(VM.run("fp").ReturnValue, 10u);
}

TEST(InterpreterTest, GlobalsAreLoadedAndAddressable) {
  Module M("t");
  IRBuilder B(M);
  GlobalVariable *G =
      M.createGlobal("counter", B.i64(), {42, 0, 0, 0, 0, 0, 0, 0});
  Function *F = M.createFunction("bump", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Value *Old = B.load(B.i64(), G);
  B.store(B.add(Old, B.constI64(1)), G);
  B.ret(B.load(B.i64(), G));
  Interpreter VM(M);
  EXPECT_EQ(VM.run("bump").ReturnValue, 43u);
  EXPECT_EQ(VM.run("bump").ReturnValue, 44u)
      << "globals persist across runs of one VM instance";
  EXPECT_NE(VM.getGlobalAddress("counter"), 0u);
}

TEST(InterpreterTest, ReadOnlyGlobalTrapsOnStore) {
  Module M("t");
  IRBuilder B(M);
  GlobalVariable *G = M.createGlobal("table", B.i64(), {1}, /*ReadOnly=*/true);
  Function *F = M.createFunction("smash", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.store(B.constI64(0), G);
  B.ret();
  Interpreter VM(M);
  ExecResult R = VM.run("smash");
  EXPECT_EQ(R.Trap, TrapKind::ReadOnlyViolation);
}

TEST(InterpreterTest, AllocasStackDownwardInDeclarationOrder) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.alloca_(B.i64(), "first");
  B.alloca_(B.getContext().getArrayTy(B.i8(), 64), "buf");
  B.alloca_(B.i32(), "last");
  B.ret();
  RecordingObserver Obs;
  Interpreter VM(M);
  VM.setLayoutObserver(&Obs);
  ASSERT_TRUE(VM.run("f").ok());
  ASSERT_EQ(Obs.Placements.size(), 3u);
  EXPECT_GT(Obs.Placements[0].Addr, Obs.Placements[1].Addr)
      << "earlier allocas sit higher (x86-style downward growth)";
  EXPECT_GT(Obs.Placements[1].Addr, Obs.Placements[2].Addr);
  EXPECT_EQ(Obs.Placements[1].Size, 64u);
}

TEST(InterpreterTest, BufferOverflowReachesEarlierLocal) {
  // victim is declared before buf, so it lives at a higher address; writing
  // past buf's end corrupts victim. This is the determinism Smokestack
  // destroys.
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Victim = B.alloca_(B.i64(), "victim");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "buf");
  B.store(B.constI64(7), Victim);
  // Write 8 bytes at buf+16 — one past the end, exactly onto victim.
  GepInst *Past = B.gepConst(Buf, 16);
  B.store(B.constI64(0x4141414141414141ULL), Past);
  B.ret(B.load(B.i64(), Victim));
  Interpreter VM(M);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 0x4141414141414141ULL);
}

TEST(InterpreterTest, VLAAllocaUsesDynamicCount) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.i64(), {B.i64()});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *VLA = B.allocaVLA(B.i8(), F->getArg(0), "vla");
  AllocaInst *After = B.alloca_(B.i64(), "after");
  Value *VlaInt = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), VLA);
  Value *AfterInt = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), After);
  B.ret(B.sub(VlaInt, AfterInt));
  Interpreter VM(M);
  // Gap between the VLA base and the next alloca >= requested VLA size.
  EXPECT_GE(VM.run("f", {100}).ReturnValue, 8u);
  EXPECT_GE(VM.run("f", {1000}).ReturnValue, 8u);
}

TEST(InterpreterTest, DivisionByZeroTraps) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.i64(), {B.i64()});
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.udiv(B.constI64(1), F->getArg(0)));
  Interpreter VM(M);
  EXPECT_EQ(VM.run("f", {0}).Trap, TrapKind::DivisionByZero);
  EXPECT_TRUE(VM.run("f", {2}).ok());
}

TEST(InterpreterTest, OutOfFuel) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("spin", B.voidTy(), {});
  BasicBlock *Entry = F->createBlock("entry");
  B.setInsertPoint(Entry);
  B.br(Entry);
  InterpreterOptions Opts;
  Opts.Fuel = 1000;
  Interpreter VM(M, nullptr, Opts);
  EXPECT_EQ(VM.run("spin").Trap, TrapKind::OutOfFuel);
}

TEST(InterpreterTest, CallDepthLimit) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("inf", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.call(F, {});
  B.ret();
  InterpreterOptions Opts;
  Opts.MaxCallDepth = 64;
  Interpreter VM(M, nullptr, Opts);
  EXPECT_EQ(VM.run("inf").Trap, TrapKind::StackOverflow);
}

TEST(InterpreterTest, StackBaseOffsetShiftsFrameAddresses) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *X = B.alloca_(B.i64(), "x");
  B.ret(B.cast_(CastInst::CastOp::PtrToInt, B.i64(), X));
  uint64_t Plain, Shifted;
  {
    Interpreter VM(M);
    Plain = VM.run("f").ReturnValue;
  }
  {
    InterpreterOptions Opts;
    Opts.StackBaseOffset = 4096;
    Interpreter VM(M, nullptr, Opts);
    Shifted = VM.run("f").ReturnValue;
  }
  EXPECT_EQ(Plain - Shifted, 4096u);
}

TEST(InterpreterTest, SelectInstruction) {
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("max", B.i64(), {B.i64(), B.i64()});
  B.setInsertPoint(F->createBlock("entry"));
  Value *Cmp = B.icmp(ICmpInst::Predicate::SGT, F->getArg(0), F->getArg(1));
  B.ret(B.select(Cmp, F->getArg(0), F->getArg(1)));
  Interpreter VM(M);
  EXPECT_EQ(VM.run("max", {3, 9}).ReturnValue, 9u);
  EXPECT_EQ(VM.run("max", {12, 9}).ReturnValue, 12u);
}

TEST(InterpreterTest, CallCounting) {
  Module M("t");
  buildFib(M);
  Interpreter VM(M);
  VM.run("fib", {10});
  // fib(10) makes 177 calls total (T(n) = T(n-1)+T(n-2)+1, T(0)=T(1)=1).
  EXPECT_EQ(VM.callsExecuted(), 177u);
}

TEST(InterpreterTest, UnknownFunctionIsBadCall) {
  Module M("t");
  Interpreter VM(M);
  EXPECT_EQ(VM.run("missing").Trap, TrapKind::BadCall);
}

TEST(InterpreterTest, RepeatedRunsReuseDecodeCache) {
  // The first run decodes the whole module into a program the VM owns;
  // the second must reuse it, not decode again, and agree with the first
  // (guards cache-invalidation bugs).
  Module M("t");
  buildRandomProgram(M, 7);
  const Statistic *Programs = findStatistic("vm.decoded-programs");
  ASSERT_NE(Programs, nullptr);
  Interpreter VM(M);
  uint64_t Before = Programs->value();
  ExecResult First = VM.run("main");
  ExecResult Second = VM.run("main");
  EXPECT_EQ(Programs->value(), Before + 1);
  EXPECT_EQ(First.Trap, Second.Trap);
  EXPECT_EQ(First.ReturnValue, Second.ReturnValue);
  EXPECT_EQ(First.Steps, Second.Steps);
}

TEST(InterpreterTest, FunctionAddedAfterFirstRunTrapsBadCall) {
  // The first run decodes the module as it is then; a function added
  // later is not in that program and must trap, not crash or run stale.
  Module M("t");
  buildSumTo(M);
  Interpreter VM(M);
  ASSERT_TRUE(VM.run("sumTo", {4}).ok());
  IRBuilder B(M);
  Function *Late = M.createFunction("late", B.i64(), {});
  B.setInsertPoint(Late->createBlock("entry"));
  B.ret(B.constI64(1));
  ExecResult R = VM.run("late");
  EXPECT_EQ(R.Trap, TrapKind::BadCall);
  EXPECT_EQ(R.Message, "'late' is not in the decoded program");
  EXPECT_EQ(R.Steps, 0u);
}
