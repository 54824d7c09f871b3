//===- tests/core/SmokestackPassTest.cpp - Instrumentation tests ---------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the instrumentation pass: a module is built, passed
/// through SmokestackPass, and executed in the VM. Functional behavior must
/// be preserved while the frame layout changes per invocation.
///
//===----------------------------------------------------------------------===//

#include "core/SmokestackPass.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "rng/AesCtr.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>
#include <memory>
#include <set>

using namespace smokestack;

namespace {

/// Builds i64 compute(i64 n): uses three locals; returns deterministic
/// arithmetic so instrumentation-induced breakage is visible.
void buildCompute(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("compute", B.i64(), {B.i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *I = B.alloca_(B.i32(), "i");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 32), "buf");
  B.store(B.constI64(1), Acc);
  B.store(B.constI32(0), I);
  // Touch the buffer so it is genuinely used.
  B.store(B.constI8(7), B.gepConst(Buf, 3));
  B.br(Loop);
  B.setInsertPoint(Loop);
  Value *IV = B.zext(B.i64(), B.load(B.i32(), I));
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, IV, F->getArg(0)), Body, Exit);
  B.setInsertPoint(Body);
  Value *AccV = B.load(B.i64(), Acc);
  Value *BufByte = B.zext(B.i64(), B.load(B.i8(), B.gepConst(Buf, 3)));
  B.store(B.add(B.mul(AccV, B.constI64(3)), BufByte), Acc);
  B.store(B.add(B.load(B.i32(), I), B.constI32(1)), I);
  B.br(Loop);
  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// Builds i64 delta(): returns (addr of a) - (addr of b) to expose layout.
void buildDelta(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("delta", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *A = B.alloca_(B.i64(), "a");
  AllocaInst *Bv = B.alloca_(B.getContext().getArrayTy(B.i8(), 24), "b");
  AllocaInst *C = B.alloca_(B.i32(), "c");
  B.store(B.constI64(0), A);
  B.store(B.constI32(0), C);
  Value *AI = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), A);
  Value *BI = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Bv);
  B.ret(B.sub(AI, BI));
}

/// Entropy + AES-10 source with tied lifetimes for tests.
struct RngBundle {
  DeterministicEntropySource Entropy;
  AesCtrRandomSource Source;
  explicit RngBundle(uint64_t Seed) : Entropy(Seed), Source(Entropy, 10) {}
};

} // namespace

TEST(SmokestackPassTest, PreservesBehavior) {
  Module Plain("plain"), Hardened("hard");
  buildCompute(Plain);
  buildCompute(Hardened);

  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(Hardened);
  ASSERT_TRUE(verifyModule(Hardened));

  RngBundle Rng(7);
  Interpreter PlainVM(Plain);
  Interpreter HardVM(Hardened, &Rng.Source);
  for (uint64_t N : {0ull, 1ull, 5ull, 17ull}) {
    ExecResult RP = PlainVM.run("compute", {N});
    ExecResult RH = HardVM.run("compute", {N});
    ASSERT_TRUE(RP.ok());
    ASSERT_TRUE(RH.ok()) << RH.Message;
    EXPECT_EQ(RP.ReturnValue, RH.ReturnValue) << "n=" << N;
  }
}

TEST(SmokestackPassTest, LayoutChangesAcrossInvocations) {
  Module M("m");
  buildDelta(M);
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);

  RngBundle Rng(11);
  Interpreter VM(M, &Rng.Source);
  std::set<int64_t> Deltas;
  for (int Trial = 0; Trial != 64; ++Trial) {
    ExecResult R = VM.run("delta");
    ASSERT_TRUE(R.ok()) << R.Message;
    Deltas.insert(static_cast<int64_t>(R.ReturnValue));
  }
  EXPECT_GT(Deltas.size(), 2u)
      << "relative distance between locals must vary per invocation";
}

TEST(SmokestackPassTest, UninstrumentedLayoutIsConstant) {
  Module M("m");
  buildDelta(M);
  Interpreter VM(M);
  std::set<int64_t> Deltas;
  for (int Trial = 0; Trial != 16; ++Trial)
    Deltas.insert(static_cast<int64_t>(VM.run("delta").ReturnValue));
  EXPECT_EQ(Deltas.size(), 1u) << "baseline layout is deterministic";
}

TEST(SmokestackPassTest, EmitsReadOnlyPBoxGlobal) {
  Module M("m");
  buildCompute(M);
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);
  GlobalVariable *G = M.getGlobal(PBoxGlobalName);
  ASSERT_NE(G, nullptr);
  EXPECT_TRUE(G->isReadOnly());
  EXPECT_GT(G->getInitializer().size(), 0u);
}

TEST(SmokestackPassTest, FrameWideOverflowTripsFunctionIdCheck) {
  // A function that memsets from its buffer to the end of the frame; the
  // identifier slot is clobbered whenever the permutation put it above the
  // buffer, producing FunctionIdViolation on some invocations.
  Module M("m");
  IRBuilder B(M);
  Function *Memset =
      M.getOrInsertDeclaration("memset", B.ptr(), {B.ptr(), B.i32(), B.i64()});
  Function *F = M.createFunction("smash", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *X = B.alloca_(B.i64(), "x");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "buf");
  B.store(B.constI64(5), X);
  B.call(Memset, {Buf, B.constI32('A'), B.constI64(128)}); // way past buf
  B.ret(B.load(B.i64(), X));

  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);

  RngBundle Rng(13);
  Interpreter VM(M, &Rng.Source);
  int Violations = 0, Clean = 0;
  for (int Trial = 0; Trial != 64; ++Trial) {
    ExecResult R = VM.run("smash");
    if (R.Trap == TrapKind::FunctionIdViolation)
      ++Violations;
    else
      ++Clean;
  }
  EXPECT_GT(Violations, 0) << "id slot must land above buf sometimes";
}

TEST(SmokestackPassTest, MultipleReturnsAllChecked) {
  Module M("m");
  IRBuilder B(M);
  Function *F = M.createFunction("branchy", B.i64(), {B.i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  B.setInsertPoint(Entry);
  AllocaInst *X = B.alloca_(B.i64(), "x");
  B.store(F->getArg(0), X);
  B.condBr(B.icmp(ICmpInst::Predicate::SGT, F->getArg(0), B.constI64(10)),
           Then, Else);
  B.setInsertPoint(Then);
  B.ret(B.constI64(1));
  B.setInsertPoint(Else);
  B.ret(B.load(B.i64(), X));

  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);
  ASSERT_TRUE(verifyModule(M));

  RngBundle Rng(17);
  Interpreter VM(M, &Rng.Source);
  EXPECT_EQ(VM.run("branchy", {50}).ReturnValue, 1u);
  EXPECT_EQ(VM.run("branchy", {3}).ReturnValue, 3u);
}

TEST(SmokestackPassTest, VLAPlacementIsRandomized) {
  Module M("m");
  IRBuilder B(M);
  Function *F = M.createFunction("vla", B.i64(), {B.i64()});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Anchor = B.alloca_(B.i64(), "anchor");
  B.store(B.constI64(0), Anchor);
  AllocaInst *VLA = B.allocaVLA(B.i8(), F->getArg(0), "vbuf");
  Value *VI = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), VLA);
  Value *AI = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Anchor);
  B.ret(B.sub(AI, VI));

  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);
  ASSERT_TRUE(verifyModule(M));

  RngBundle Rng(19);
  Interpreter VM(M, &Rng.Source);
  std::set<uint64_t> Gaps;
  for (int Trial = 0; Trial != 32; ++Trial) {
    ExecResult R = VM.run("vla", {64});
    ASSERT_TRUE(R.ok()) << R.Message;
    Gaps.insert(R.ReturnValue);
  }
  EXPECT_GT(Gaps.size(), 2u)
      << "random dummy padding must move the VLA relative to the frame";
}

TEST(SmokestackPassTest, FunctionsWithSameSignatureShareTable) {
  Module M("m");
  IRBuilder B(M);
  for (const char *Name : {"f1", "f2"}) {
    Function *F = M.createFunction(Name, B.voidTy(), {});
    B.setInsertPoint(F->createBlock("entry"));
    // f1: (i32, double), f2 same multiset; both get the same P-BOX table.
    if (Name[1] == '1') {
      B.alloca_(B.i32(), "i");
      B.alloca_(B.f64(), "d");
    } else {
      B.alloca_(B.f64(), "d");
      B.alloca_(B.i32(), "i");
    }
    B.ret();
  }
  PassManager PM;
  auto PassPtr = std::make_unique<SmokestackPass>();
  const PBox *Box = &PassPtr->pbox();
  SmokestackPass *Raw = PassPtr.get();
  PM.addPass(std::move(PassPtr));
  PM.run(M);
  EXPECT_EQ(Box->numTables(), 1u);
  EXPECT_EQ(Raw->functionsInstrumented(), 2u);
  EXPECT_EQ(*M.getFunction("f1")->getAttribute("smokestack.table"),
            *M.getFunction("f2")->getAttribute("smokestack.table"));
}

TEST(SmokestackPassTest, DisablingIdChecksSkipsEpilogue) {
  Module M("m");
  buildDelta(M);
  SmokestackOptions Opts;
  Opts.FunctionIdChecks = false;
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>(Opts));
  PM.run(M);
  ASSERT_TRUE(verifyModule(M));
  // No trap block emitted.
  Function *F = M.getFunction("delta");
  for (const auto &Block : *F)
    EXPECT_NE(Block->getName(), "ss.trap");
  RngBundle Rng(23);
  Interpreter VM(M, &Rng.Source);
  EXPECT_TRUE(VM.run("delta").ok());
}

TEST(SmokestackPassTest, RecursiveFunctionStillWorks) {
  Module M("m");
  IRBuilder B(M);
  Function *F = M.createFunction("fact", B.i64(), {B.i64()});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Base = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  B.setInsertPoint(Entry);
  AllocaInst *N = B.alloca_(B.i64(), "n");
  B.store(F->getArg(0), N);
  B.condBr(B.icmp(ICmpInst::Predicate::SLE, B.load(B.i64(), N),
                  B.constI64(1)),
           Base, Rec);
  B.setInsertPoint(Base);
  B.ret(B.constI64(1));
  B.setInsertPoint(Rec);
  Value *NV = B.load(B.i64(), N);
  Value *Sub = B.call(F, {B.sub(NV, B.constI64(1))});
  B.ret(B.mul(NV, Sub));

  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);
  RngBundle Rng(29);
  Interpreter VM(M, &Rng.Source);
  ExecResult R = VM.run("fact", {10});
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 3628800u);
}

TEST(SmokestackPassTest, FrameBeyondPBoxOffsetsIsLeftUnhardened) {
  // A 4e12-byte local cannot be addressed by the P-BOX's 32-bit slot
  // offsets; hardening it would allocate 4e12 mod 2^32 bytes. The pass must
  // leave the frame alone, so both runs trap on the true size.
  auto Build = [](Module &M) {
    buildCompute(M);
    IRBuilder B(M);
    Function *F = M.createFunction("big", B.i64(), {});
    B.setInsertPoint(F->createBlock("entry"));
    AllocaInst *X = B.alloca_(B.i64(), "x");
    B.alloca_(B.getContext().getArrayTy(B.i8(), 4000000000000ULL), "huge");
    B.store(B.constI64(3), X);
    B.ret(B.load(B.i64(), X));
  };
  Module Plain("plain"), Hardened("hard");
  Build(Plain);
  Build(Hardened);
  auto Owned = std::make_unique<SmokestackPass>();
  SmokestackPass *Pass = Owned.get();
  PassManager PM;
  PM.addPass(std::move(Owned));
  PM.run(Hardened);
  ASSERT_TRUE(verifyModule(Hardened));
  EXPECT_EQ(Pass->framesTooLarge(), 1u);
  EXPECT_EQ(Pass->functionsInstrumented(), 1u) << "compute still hardened";

  RngBundle Rng(31);
  ExecResult RP = Interpreter(Plain).run("big");
  ExecResult RH = Interpreter(Hardened, &Rng.Source).run("big");
  EXPECT_EQ(RP.Trap, TrapKind::StackOverflow);
  EXPECT_EQ(RH.Trap, RP.Trap);
  EXPECT_EQ(RH.Message, RP.Message);
  EXPECT_NE(RP.Message.find("4000000000000"), std::string::npos)
      << RP.Message;
}
