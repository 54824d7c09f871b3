//===- tests/vm/BuiltinsTest.cpp - VM builtin function tests -------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "rng/Pseudo.h"
#include "runtime/WorkerPool.h"
#include "vm/Builtins.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace smokestack;

namespace {

/// Module with one function `f` whose body is produced by \p Body. The
/// helper pre-declares the builtins used across these tests.
struct TestProgram {
  Module M{"t"};
  IRBuilder B{M};
  Function *F = nullptr;

  explicit TestProgram(Type *RetTy = nullptr) {
    if (!RetTy)
      RetTy = B.i64();
    F = M.createFunction("f", RetTy, {});
    B.setInsertPoint(F->createBlock("entry"));
  }

  Function *declare(const std::string &Name, Type *Ret,
                    std::vector<Type *> Params, bool VarArg = false) {
    return M.getOrInsertDeclaration(Name, Ret, std::move(Params), VarArg);
  }
};

} // namespace

TEST(BuiltinsTest, MallocMemsetMemcpyStrlen) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Malloc = P.declare("malloc", B.ptr(), {B.i64()});
  Function *Memset = P.declare("memset", B.ptr(), {B.ptr(), B.i32(), B.i64()});
  Function *Memcpy =
      P.declare("memcpy", B.ptr(), {B.ptr(), B.ptr(), B.i64()});
  Function *Strlen = P.declare("strlen", B.i64(), {B.ptr()});

  Value *Buf = B.call(Malloc, {B.constI64(64)});
  B.call(Memset, {Buf, B.constI32('A'), B.constI64(10)});
  Value *Buf2 = B.call(Malloc, {B.constI64(64)});
  B.call(Memcpy, {Buf2, Buf, B.constI64(11)}); // includes the NUL
  B.ret(B.call(Strlen, {Buf2}));

  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 10u);
}

TEST(BuiltinsTest, SnprintfBoundedWriteAndC99Return) {
  // The librelp bug pattern: the return value is the would-be length, not
  // the written length.
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Snprintf = P.declare("snprintf", B.i64(),
                                 {B.ptr(), B.i64(), B.ptr()}, true);
  GlobalVariable *Fmt = P.M.createGlobal(
      "fmt", B.getContext().getArrayTy(B.i8(), 16),
      {'x', '=', '%', 's', '!', 0});
  GlobalVariable *Val = P.M.createGlobal(
      "val", B.getContext().getArrayTy(B.i8(), 16),
      {'0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 0});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 8), "buf");
  // Would-be output "x=0123456789!" = 13 chars; buffer holds 7 + NUL.
  B.ret(B.call(Snprintf, {Buf, B.constI64(8), Fmt, Val}));

  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 13u) << "C99 return: length that WOULD be written";
}

TEST(BuiltinsTest, SnprintfIntegerDirectives) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Snprintf =
      P.declare("snprintf", B.i64(), {B.ptr(), B.i64(), B.ptr()}, true);
  Function *PrintStr = P.declare("print_str", B.voidTy(), {B.ptr()});
  GlobalVariable *Fmt = P.M.createGlobal(
      "fmt", B.getContext().getArrayTy(B.i8(), 24),
      {'%', 'd', ' ', '%', 'u', ' ', '%', 'x', ' ', '%', 'c', ' ', '%', '%',
       0});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 64), "buf");
  B.call(Snprintf, {Buf, B.constI64(64), Fmt, B.constI64(-5), B.constI64(7),
                    B.constI64(255), B.constI64('Z')});
  B.call(PrintStr, {Buf});
  B.ret(B.constI64(0));

  Interpreter VM(P.M);
  ASSERT_TRUE(VM.run("f").ok());
  EXPECT_EQ(VM.output(), "-5 7 ff Z %\n");
}

TEST(BuiltinsTest, StrcpyOverflowsIntoNeighbor) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Strcpy = P.declare("strcpy", B.ptr(), {B.ptr(), B.ptr()});
  GlobalVariable *Long = P.M.createGlobal(
      "long", B.getContext().getArrayTy(B.i8(), 32),
      {'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'B', 'B', 'B', 'B', 'B', 'B',
       'B', 'B', 0});
  AllocaInst *Victim = B.alloca_(B.i64(), "victim");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 8), "buf");
  B.store(B.constI64(0), Victim);
  B.call(Strcpy, {Buf, Long}); // 16 chars into 8 bytes
  B.ret(B.load(B.i64(), Victim));

  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 0x4242424242424242ULL)
      << "victim (declared first, higher address) takes the 'B' bytes";
}

TEST(BuiltinsTest, SstrncpyNegativeLengthIsUnbounded) {
  // CVE-2006-5815 semantics.
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Sstrncpy =
      P.declare("sstrncpy", B.ptr(), {B.ptr(), B.ptr(), B.i64()});
  std::vector<uint8_t> Init(48, 'C');
  Init.push_back(0);
  GlobalVariable *Long = P.M.createGlobal(
      "long", B.getContext().getArrayTy(B.i8(), 64), Init);
  AllocaInst *Victim = B.alloca_(B.i64(), "victim");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 8), "buf");
  B.store(B.constI64(0), Victim);
  B.call(Sstrncpy, {Buf, Long, B.constI64(static_cast<uint64_t>(-1))});
  B.ret(B.load(B.i64(), Victim));

  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 0x4343434343434343ULL);
}

TEST(BuiltinsTest, SstrncpyPositiveLengthIsBounded) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Sstrncpy =
      P.declare("sstrncpy", B.ptr(), {B.ptr(), B.ptr(), B.i64()});
  std::vector<uint8_t> Init(48, 'C');
  Init.push_back(0);
  GlobalVariable *Long =
      P.M.createGlobal("long", B.getContext().getArrayTy(B.i8(), 64), Init);
  AllocaInst *Victim = B.alloca_(B.i64(), "victim");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 8), "buf");
  B.store(B.constI64(0), Victim);
  B.call(Sstrncpy, {Buf, Long, B.constI64(8)});
  B.ret(B.load(B.i64(), Victim));

  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 0u) << "bounded copy stays inside buf";
}

TEST(BuiltinsTest, GetInputConsumesQueueUnbounded) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *GetInput = P.declare("get_input", B.i64(), {B.ptr()});
  AllocaInst *Victim = B.alloca_(B.i64(), "victim");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 4), "buf");
  B.store(B.constI64(0), Victim);
  Value *Len = B.call(GetInput, {Buf});
  B.ret(B.add(Len, B.load(B.i64(), Victim)));

  Interpreter VM(P.M);
  // 4-byte buffer, 12-byte record: 8 bytes land on victim.
  std::vector<uint8_t> Record(12, 0x01);
  VM.pushInput(Record);
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 12u + 0x0101010101010101ULL);
}

TEST(BuiltinsTest, GetInputNBounded) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *GetInputN = P.declare("get_input_n", B.i64(), {B.ptr(), B.i64()});
  AllocaInst *Victim = B.alloca_(B.i64(), "victim");
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 4), "buf");
  B.store(B.constI64(0), Victim);
  Value *Len = B.call(GetInputN, {Buf, B.constI64(4)});
  B.ret(B.add(Len, B.load(B.i64(), Victim)));

  Interpreter VM(P.M);
  VM.pushInput(std::vector<uint8_t>(12, 0x01));
  ExecResult R = VM.run("f");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 4u) << "bounded read leaves victim intact";
}

TEST(BuiltinsTest, GetInputEmptyQueueReturnsZero) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *GetInput = P.declare("get_input", B.i64(), {B.ptr()});
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 4), "buf");
  B.ret(B.call(GetInput, {Buf}));
  Interpreter VM(P.M);
  EXPECT_EQ(VM.run("f").ReturnValue, 0u);
}

TEST(BuiltinsTest, SmokestackRandUsesBoundSource) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Rand = P.declare("smokestack.rand", B.i64(), {});
  B.ret(B.call(Rand, {}));

  DeterministicEntropySource Entropy(5);
  PseudoRandomSource Rng(Entropy);
  uint64_t StateCopy[2];
  {
    auto State = Rng.disclosableState();
    memcpy(StateCopy, State.data(), State.size());
  }
  Interpreter VM(P.M, &Rng);
  EXPECT_EQ(VM.run("f").ReturnValue, PseudoRandomSource::stepState(StateCopy));
}

TEST(BuiltinsTest, SmokestackRandWithoutSourceTraps) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Rand = P.declare("smokestack.rand", B.i64(), {});
  B.ret(B.call(Rand, {}));
  Interpreter VM(P.M);
  EXPECT_EQ(VM.run("f").Trap, TrapKind::BadCall);
}

TEST(BuiltinsTest, SmokestackTrapCodes) {
  for (auto [Code, Kind] :
       {std::pair<uint64_t, TrapKind>{1, TrapKind::FunctionIdViolation},
        {2, TrapKind::CanaryViolation},
        {9, TrapKind::ExplicitTrap}}) {
    TestProgram P(nullptr);
    IRBuilder &B = P.B;
    Function *Trap = P.declare("smokestack.trap", B.voidTy(), {B.i64()});
    B.call(Trap, {B.constI64(Code)});
    B.ret(B.constI64(0));
    Interpreter VM(P.M);
    EXPECT_EQ(VM.run("f").Trap, Kind);
  }
}

TEST(BuiltinsTest, PrintBuiltinsAccumulateOutput) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *PrintI64 = P.declare("print_i64", B.voidTy(), {B.i64()});
  B.call(PrintI64, {B.constI64(static_cast<uint64_t>(-3))});
  B.call(PrintI64, {B.constI64(99)});
  B.ret(B.constI64(0));
  Interpreter VM(P.M);
  ASSERT_TRUE(VM.run("f").ok());
  EXPECT_EQ(VM.output(), "-3\n99\n");
}

TEST(BuiltinsTest, UnknownBuiltinTraps) {
  TestProgram P;
  IRBuilder &B = P.B;
  Function *Mystery = P.declare("mystery", B.i64(), {});
  B.ret(B.call(Mystery, {}));
  Interpreter VM(P.M);
  ExecResult R = VM.run("f");
  EXPECT_EQ(R.Trap, TrapKind::BadCall);
  EXPECT_NE(R.Message.find("mystery"), std::string::npos);
}

TEST(BuiltinsTest, TooFewArgumentsTrapBadCallUnderEveryEngineAndInAPool) {
  // Every builtin that reads an argument, declared and called with none.
  // Such a call used to index past the argument list: an uncaught
  // std::out_of_range that aborted the host process, and inside a worker
  // pool reached std::terminate.
  unsigned Checked = 0;
  for (unsigned Raw = static_cast<unsigned>(BuiltinId::None) + 1;
       Raw != static_cast<unsigned>(BuiltinId::Unknown); ++Raw) {
    auto Id = static_cast<BuiltinId>(Raw);
    std::string Name = builtinName(Id);
    ASSERT_EQ(builtinIdFor(Name), Id) << Name;
    if (builtinMinArgs(Id) == 0)
      continue;
    ++Checked;
    Module M("t");
    IRBuilder B(M);
    Function *Decl = M.getOrInsertDeclaration(Name, B.i64(), {});
    Function *F = M.createFunction("f", B.i64(), {});
    B.setInsertPoint(F->createBlock("entry"));
    B.ret(B.call(Decl, {}));

    struct Engine {
      const char *Name;
      bool Jit;
    };
    for (Engine E : {Engine{"decoded", false}, Engine{"jit", true}}) {
      if (E.Jit && !jitAvailable())
        continue;
      InterpreterOptions Opts;
      Opts.UseJit = E.Jit;
      Opts.JitThreshold = 0;
      Interpreter VM(M, nullptr, Opts);
      ExecResult R = VM.run("f");
      EXPECT_EQ(R.Trap, TrapKind::BadCall) << Name << " under " << E.Name;
      EXPECT_EQ(R.Message,
                Id == BuiltinId::Snprintf
                    ? "snprintf needs at least (buf, size, fmt)"
                    : "'" + Name + "' takes at least " +
                          std::to_string(builtinMinArgs(Id)) +
                          " argument(s), 0 given")
          << E.Name;
      EXPECT_EQ(R.Steps, 1u) << Name << " under " << E.Name;
    }

    PoolOptions PO;
    PO.Workers = 1;
    PO.Function = "f";
    WorkerPool Pool(M, PO);
    Pool.start();
    Pool.submit({0, {}});
    std::vector<PoolOutcome> Outcomes = Pool.finish();
    ASSERT_EQ(Outcomes.size(), 1u) << Name;
    EXPECT_EQ(Outcomes[0].Trap, TrapKind::BadCall) << Name << " in a pool";
    EXPECT_FALSE(Outcomes[0].Poisoned) << Name;
  }
  EXPECT_GE(Checked, 10u);
}
