//===- tests/vm/InterpreterEdgeTest.cpp - VM edge-case tests -------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The opcode cases run on both engines: the decoded engine, and the JIT
// compiling the function on its first call, whose slow paths execute the
// same Interpreter code one instruction at a time. Each engine's result
// must equal the expected value.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace smokestack;

namespace {

struct Prog {
  Module M{"t"};
  IRBuilder B{M};
  Function *F = nullptr;

  explicit Prog(Type *RetTy = nullptr) {
    F = M.createFunction("f", RetTy ? RetTy : B.i64(), {});
    B.setInsertPoint(F->createBlock("entry"));
  }
};

/// Calls \p Body with a fresh VM over \p M on the decoded engine, then on
/// the JIT with JitThreshold 0 (where jitAvailable()), which must have
/// compiled what Body ran.
template <typename BodyFn> void forEachEngine(Module &M, BodyFn Body) {
  for (bool Jit : {false, true}) {
    if (Jit && !jitAvailable())
      continue;
    SCOPED_TRACE(Jit ? "jit" : "decoded");
    InterpreterOptions Opts;
    Opts.UseJit = Jit;
    Opts.JitThreshold = 0;
    Interpreter VM(M, nullptr, Opts);
    Body(VM);
    if (Jit)
      EXPECT_GT(VM.jitCompiledFunctions(), 0u);
  }
}

} // namespace

TEST(InterpreterEdgeTest, FloatComparisons) {
  for (auto [Pred, A, Bv, Want] :
       {std::tuple<ICmpInst::Predicate, double, double, uint64_t>{
            ICmpInst::Predicate::OLT, 1.0, 2.0, 1},
        {ICmpInst::Predicate::OLT, 2.0, 1.0, 0},
        {ICmpInst::Predicate::OEQ, 3.5, 3.5, 1},
        {ICmpInst::Predicate::OGE, 3.5, 3.5, 1},
        {ICmpInst::Predicate::OGT, 3.5, 3.5, 0},
        {ICmpInst::Predicate::OLE, -1.0, 0.0, 1}}) {
    Prog P;
    IRBuilder &B = P.B;
    Value *Cmp = B.icmp(Pred, B.constF64(A), B.constF64(Bv));
    P.B.ret(B.zext(B.i64(), Cmp));
    forEachEngine(P.M, [&](Interpreter &VM) {
      EXPECT_EQ(VM.run("f").ReturnValue, Want);
    });
  }
}

TEST(InterpreterEdgeTest, FloatNarrowingRoundTrip) {
  // double -> float -> double loses precision deterministically.
  Prog P;
  IRBuilder &B = P.B;
  Value *Narrow = B.cast_(CastInst::CastOp::FPTrunc, B.f32(),
                          B.constF64(1.0000001));
  Value *Wide = B.cast_(CastInst::CastOp::FPExt, B.f64(), Narrow);
  Value *Scaled = B.binop(BinaryInst::BinOp::FMul, Wide,
                          B.constF64(10000000.0));
  P.B.ret(B.cast_(CastInst::CastOp::FPToSI, B.i64(), Scaled));
  forEachEngine(P.M, [](Interpreter &VM) {
    uint64_t V = VM.run("f").ReturnValue;
    EXPECT_NEAR(static_cast<double>(V), 10000001.0, 2.0);
  });
}

TEST(InterpreterEdgeTest, SignedDivisionEdge) {
  // INT64_MIN / -1 wraps rather than trapping (matches x86 behavior is a
  // trap, but the simulator defines wrapping; the point is determinism).
  Prog P;
  IRBuilder &B = P.B;
  Value *MinVal = B.constI64(0x8000000000000000ULL);
  P.B.ret(B.sdiv(MinVal, B.constI64(static_cast<uint64_t>(-1))));
  forEachEngine(P.M, [](Interpreter &VM) {
    ExecResult R = VM.run("f");
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ReturnValue, 0x8000000000000000ULL);
  });
}

TEST(InterpreterEdgeTest, ShiftBeyondWidth) {
  Prog P;
  IRBuilder &B = P.B;
  Value *Over = B.shl(B.constI64(1), B.constI64(64));
  Value *Ashr = B.binop(BinaryInst::BinOp::AShr,
                        B.constI64(static_cast<uint64_t>(-8)),
                        B.constI64(100));
  P.B.ret(B.add(Over, Ashr));
  // shl by >= width -> 0; ashr of negative by >= width -> -1.
  forEachEngine(P.M, [](Interpreter &VM) {
    EXPECT_EQ(static_cast<int64_t>(VM.run("f").ReturnValue), -1);
  });
}

TEST(InterpreterEdgeTest, GepWithIndexAndScale) {
  Prog P;
  IRBuilder &B = P.B;
  AllocaInst *Arr = B.alloca_(B.getContext().getArrayTy(B.i32(), 8), "arr");
  for (int I = 0; I != 8; ++I)
    B.store(B.constI32(10 * I), B.gepConst(Arr, 4 * I));
  Value *Idx = B.constI64(5);
  Value *Slot = B.gep(Arr, Idx, 4, 0, "slot");
  P.B.ret(B.zext(B.i64(), B.load(B.i32(), Slot)));
  forEachEngine(P.M, [](Interpreter &VM) {
    EXPECT_EQ(VM.run("f").ReturnValue, 50u);
  });
}

TEST(InterpreterEdgeTest, NegativeGepOffset) {
  Prog P;
  IRBuilder &B = P.B;
  AllocaInst *A = B.alloca_(B.i64(), "a");
  AllocaInst *Bv = B.alloca_(B.i64(), "b"); // directly below a
  B.store(B.constI64(77), A);
  B.store(B.constI64(0), Bv);
  Value *Back = B.gepConst(Bv, 8, "back"); // b + 8 == a
  P.B.ret(B.load(B.i64(), Back));
  forEachEngine(P.M, [](Interpreter &VM) {
    EXPECT_EQ(VM.run("f").ReturnValue, 77u);
  });
}

TEST(InterpreterEdgeTest, SnprintfExactFit) {
  Prog P;
  IRBuilder &B = P.B;
  Function *Snprintf = P.M.getOrInsertDeclaration(
      "snprintf", B.i64(), {B.ptr(), B.i64(), B.ptr()}, true);
  Function *Strlen = P.M.getOrInsertDeclaration("strlen", B.i64(), {B.ptr()});
  GlobalVariable *Fmt = P.M.createGlobal(
      "fmt", B.getContext().getArrayTy(B.i8(), 8), {'%', 'd', 0});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 4), "buf");
  // "123" needs exactly 3 chars + NUL = size 4: fits exactly.
  Value *R = B.call(Snprintf, {Buf, B.constI64(4), Fmt, B.constI64(123)});
  Value *Len = B.call(Strlen, {Buf});
  P.B.ret(B.add(B.mul(R, B.constI64(100)), Len));
  Interpreter VM(P.M);
  EXPECT_EQ(VM.run("f").ReturnValue, 3u * 100 + 3);
}

TEST(InterpreterEdgeTest, SnprintfZeroSizeWritesNothing) {
  Prog P;
  IRBuilder &B = P.B;
  Function *Snprintf = P.M.getOrInsertDeclaration(
      "snprintf", B.i64(), {B.ptr(), B.i64(), B.ptr()}, true);
  GlobalVariable *Fmt = P.M.createGlobal(
      "fmt", B.getContext().getArrayTy(B.i8(), 8), {'h', 'i', 0});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 4), "buf");
  B.store(B.constI8(0x55), Buf);
  Value *R = B.call(Snprintf, {Buf, B.constI64(0), Fmt});
  Value *First = B.zext(B.i64(), B.load(B.i8(), Buf));
  P.B.ret(B.add(B.mul(R, B.constI64(1000)), First));
  Interpreter VM(P.M);
  // Returns would-be length 2; buffer untouched (0x55 = 85).
  EXPECT_EQ(VM.run("f").ReturnValue, 2u * 1000 + 0x55);
}

TEST(InterpreterEdgeTest, SnprintfMissingArgumentTraps) {
  Prog P;
  IRBuilder &B = P.B;
  Function *Snprintf = P.M.getOrInsertDeclaration(
      "snprintf", B.i64(), {B.ptr(), B.i64(), B.ptr()}, true);
  GlobalVariable *Fmt = P.M.createGlobal(
      "fmt", B.getContext().getArrayTy(B.i8(), 8), {'%', 'd', 0});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "buf");
  P.B.ret(B.call(Snprintf, {Buf, B.constI64(16), Fmt})); // no %d argument
  Interpreter VM(P.M);
  EXPECT_EQ(VM.run("f").Trap, TrapKind::BadCall);
}

TEST(InterpreterEdgeTest, StrcpyFromUnmappedTraps) {
  Prog P;
  IRBuilder &B = P.B;
  Function *Strcpy =
      P.M.getOrInsertDeclaration("strcpy", B.ptr(), {B.ptr(), B.ptr()});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 8), "buf");
  Value *Bad = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(), B.constI64(64));
  B.call(Strcpy, {Buf, Bad});
  P.B.ret(B.constI64(0));
  Interpreter VM(P.M);
  EXPECT_EQ(VM.run("f").Trap, TrapKind::UnmappedAccess);
}

TEST(InterpreterEdgeTest, ArgumentsArePassedByValue) {
  // Callee mutations of its (spilled) parameter must not affect the caller.
  Module M("t");
  IRBuilder B(M);
  Function *Callee = M.createFunction("callee", B.i64(), {B.i64()});
  {
    IRBuilder CB(M);
    CB.setInsertPoint(Callee->createBlock("entry"));
    AllocaInst *P = CB.alloca_(CB.i64(), "p");
    CB.store(Callee->getArg(0), P);
    CB.store(CB.add(CB.load(CB.i64(), P), CB.constI64(100)), P);
    CB.ret(CB.load(CB.i64(), P));
  }
  Function *F = M.createFunction("f", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *X = B.alloca_(B.i64(), "x");
  B.store(B.constI64(5), X);
  Value *R = B.call(Callee, {B.load(B.i64(), X)});
  B.ret(B.add(R, B.load(B.i64(), X)));
  Interpreter VM(M);
  EXPECT_EQ(VM.run("f").ReturnValue, 105u + 5u);
}

TEST(InterpreterEdgeTest, FuelAccountingInSteps) {
  Prog P;
  IRBuilder &B = P.B;
  P.B.ret(B.add(B.constI64(1), B.constI64(2)));
  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  EXPECT_EQ(R.Steps, 2u) << "one add, one ret";
}

TEST(InterpreterEdgeTest, OutputPersistsAcrossRunsUntilCleared) {
  Prog P;
  IRBuilder &B = P.B;
  Function *Print = P.M.getOrInsertDeclaration("print_i64", B.voidTy(),
                                               {B.i64()});
  B.call(Print, {B.constI64(1)});
  P.B.ret(B.constI64(0));
  Interpreter VM(P.M);
  VM.run("f");
  VM.run("f");
  EXPECT_EQ(VM.output(), "1\n1\n");
  VM.clearOutput();
  EXPECT_TRUE(VM.output().empty());
}

TEST(InterpreterEdgeTest, WrongArityEntryPointTrapsUnderEveryEngine) {
  // g(x) = x + 1. A missing argument must not be read as zero (or past the
  // argument vector), and a surplus one must not be written past g's
  // register file: both are a BadCall before any instruction runs.
  Module M("t");
  IRBuilder B(M);
  Function *G = M.createFunction("g", B.i64(), {B.i64()});
  B.setInsertPoint(G->createBlock("entry"));
  B.ret(B.add(G->getArg(0), B.constI64(1)));

  forEachEngine(M, [](Interpreter &VM) {
    for (const std::vector<uint64_t> &Args :
         {std::vector<uint64_t>{}, std::vector<uint64_t>{1, 2}}) {
      ExecResult R = VM.run("g", Args);
      EXPECT_EQ(R.Trap, TrapKind::BadCall)
          << "with " << Args.size() << " argument(s)";
      EXPECT_EQ(R.Steps, 0u);
    }
    ExecResult R = VM.run("g", {41});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ReturnValue, 42u);
  });
}
