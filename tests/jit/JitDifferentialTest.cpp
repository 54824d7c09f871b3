//===- tests/jit/JitDifferentialTest.cpp - JIT vs decoded differential -----===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the copy-and-patch JIT against the decoded
/// engine, over the corpus vm/DecodedDifferentialTest.cpp checks the
/// decoded engine on: with JitThreshold=0 every function runs as native
/// code from its first call, and the results must be bit-identical to pure
/// decoded execution — trap kind and message, return value, step count,
/// call count, and builtin output — across the shipped examples (plain and
/// Smokestack-hardened), the randomized fuzz corpus, and handcrafted trap
/// scenarios (common/EngineCorpus.h), plus JIT-specific edge cases.
///
/// The whole suite GTEST_SKIPs on hosts where jitAvailable() is false.
///
//===----------------------------------------------------------------------===//

#include "common/EngineCorpus.h"
#include "common/RandomProgramGen.h"
#include "jit/JitAbi.h"
#include "rng/AesCtr.h"
#include "rng/RdRand.h"
#include "support/Statistics.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace smokestack;

namespace {

#define SKIP_WITHOUT_JIT()                                                     \
  do {                                                                         \
    if (!jitAvailable())                                                       \
      GTEST_SKIP() << "JIT unavailable on this host";                          \
  } while (0)

/// Runs \p FuncName under the decoded engine and under the JIT (compile on
/// first call) and asserts result parity. Each engine gets its own
/// interpreter and, when \p Seed is nonzero, an identically-seeded source
/// of \p Scheme so hardened modules draw identical layout streams — any
/// divergence in RNG draw *order* between the engines would desync the
/// streams and fail loudly. (rdrand draws from hardware: its layouts
/// differ per engine, so only layout-independent results can match.)
void expectJitParity(Module &M, const std::string &FuncName,
                     uint64_t Seed = 0,
                     InterpreterOptions BaseOpts = InterpreterOptions(),
                     const std::string &Scheme = "aes10") {
  InterpreterOptions DecodedOpts = BaseOpts;
  DecodedOpts.UseJit = false;
  InterpreterOptions JitOpts = BaseOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;

  DeterministicEntropySource DecodedEntropy(Seed), JitEntropy(Seed);
  std::unique_ptr<RandomSource> DecodedRng =
      makeRandomSource(Scheme, DecodedEntropy);
  std::unique_ptr<RandomSource> JitRng = makeRandomSource(Scheme, JitEntropy);

  Interpreter DecodedVM(M, Seed ? DecodedRng.get() : nullptr, DecodedOpts);
  Interpreter JitVM(M, Seed ? JitRng.get() : nullptr, JitOpts);

  ExecResult DecodedR = DecodedVM.run(FuncName);
  ExecResult JitR = JitVM.run(FuncName);

  EXPECT_EQ(DecodedR.Trap, JitR.Trap)
      << FuncName << ": decoded trapped with '" << trapKindName(DecodedR.Trap)
      << "' (" << DecodedR.Message << "), jit with '"
      << trapKindName(JitR.Trap) << "' (" << JitR.Message << ")";
  EXPECT_EQ(DecodedR.Message, JitR.Message) << FuncName;
  EXPECT_EQ(DecodedR.ReturnValue, JitR.ReturnValue) << FuncName;
  EXPECT_EQ(DecodedR.Steps, JitR.Steps) << FuncName;
  EXPECT_EQ(DecodedVM.callsExecuted(), JitVM.callsExecuted()) << FuncName;
  EXPECT_EQ(DecodedVM.output(), JitVM.output()) << FuncName;
}

} // namespace

TEST(JitDifferentialTest, ExampleModulesMatchPlain) {
  SKIP_WITHOUT_JIT();
  unsigned FunctionsRun = forEachExampleFunction(
      /*Hardened=*/false,
      [](Module &M, const std::string &Fn, const std::string &) {
        expectJitParity(M, Fn);
      });
  EXPECT_GT(FunctionsRun, 0u) << "no zero-argument definitions exercised";
}

TEST(JitDifferentialTest, ExampleModulesMatchHardened) {
  SKIP_WITHOUT_JIT();
  forEachExampleFunction(
      /*Hardened=*/true,
      [](Module &M, const std::string &Fn, const std::string &) {
        expectJitParity(M, Fn, /*Seed=*/0xD1FF);
      });
}

// The randomized corpus of the instrumentation fuzzer, replayed one tier
// up: plain modules and Smokestack-hardened modules with pinned randomness.
class JitDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitDifferentialFuzz, CorpusMatches) {
  SKIP_WITHOUT_JIT();
  uint64_t Seed = GetParam();
  Module Plain("plain");
  buildRandomProgram(Plain, Seed);
  ASSERT_TRUE(verifyModule(Plain));
  expectJitParity(Plain, "main");

  Module Hard("hard");
  buildRandomProgram(Hard, Seed);
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(Hard);
  ASSERT_TRUE(verifyModule(Hard));
  expectJitParity(Hard, "main", /*Seed=*/Seed ^ 0xF022);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 41));

TEST(JitDifferentialTest, DivisionByZeroParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildDivisionByZero(M);
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, SignedDivisionOverflowParity) {
  // INT64_MIN / -1 wraps (remainder 0) in both engines instead of faulting
  // — the one case where native idiv would trap #DE, so it must stay on
  // the shim path.
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *MinSlot = B.alloca_(B.i64(), "m");
  B.store(B.constI64(uint64_t(1) << 63), MinSlot);
  AllocaInst *NegSlot = B.alloca_(B.i64(), "n");
  B.store(B.constI64(~uint64_t(0)), NegSlot);
  Value *Q = B.sdiv(B.load(B.i64(), MinSlot), B.load(B.i64(), NegSlot));
  Value *R = B.srem(B.load(B.i64(), MinSlot), B.load(B.i64(), NegSlot));
  B.ret(B.add(Q, R));
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, UnmappedAccessParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildUnmappedAccess(M);
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, OutOfFuelParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildEndlessLoop(M);
  InterpreterOptions Opts;
  Opts.Fuel = 100;
  expectJitParity(M, "main", /*Seed=*/0, Opts);
}

TEST(JitDifferentialTest, VlaSizeOverflowParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildVlaSizeOverflow(M);
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, UnreachableParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildUnreachable(M);
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, CallDepthLimitParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildUnboundedRecursion(M);
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, UnknownBuiltinParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildUnknownBuiltinCall(M);
  expectJitParity(M, "main");
}

TEST(JitDifferentialTest, BuiltinsAndInputParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  buildInputAndPrint(M);

  InterpreterOptions DecodedOpts, JitOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;
  Interpreter DecodedVM(M, nullptr, DecodedOpts), JitVM(M, nullptr, JitOpts);
  DecodedVM.pushInputString("hello");
  JitVM.pushInputString("hello");
  ExecResult DecodedR = DecodedVM.run("main"), JitR = JitVM.run("main");
  EXPECT_EQ(DecodedR.Trap, JitR.Trap);
  EXPECT_EQ(DecodedR.ReturnValue, JitR.ReturnValue);
  EXPECT_EQ(DecodedR.Steps, JitR.Steps);
  EXPECT_EQ(DecodedVM.output(), JitVM.output());
}

TEST(JitDifferentialTest, RepeatedRunsReuseCompiledCode) {
  // The second run must reuse the installed code (one compiled function,
  // stable results) — guards against per-run recompilation and against
  // stale state leaking between runs through the code cache.
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  buildRandomProgram(M, 7);
  InterpreterOptions JitOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;
  Interpreter JitVM(M, nullptr, JitOpts);
  ExecResult First = JitVM.run("main");
  uint64_t CompiledAfterFirst = JitVM.jitCompiledFunctions();
  ExecResult Second = JitVM.run("main");
  EXPECT_EQ(First.Trap, Second.Trap);
  EXPECT_EQ(First.ReturnValue, Second.ReturnValue);
  EXPECT_EQ(First.Steps, Second.Steps);
  EXPECT_GT(CompiledAfterFirst, 0u);
  EXPECT_EQ(JitVM.jitCompiledFunctions(), CompiledAfterFirst);
}

namespace {

/// main() loads a Width-byte integer from simulated address \p Addr and
/// returns it zero-extended.
void buildRawLoad(Module &M, uint64_t Addr, Type *Ty) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Value *P = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(), B.constI64(Addr));
  Value *V = B.load(Ty, P);
  B.ret(Ty == B.i64() ? V : B.zext(B.i64(), V));
}

std::vector<Type *> scalarTypes(IRBuilder &B) {
  return {B.i8(), B.i16(), B.i32(), B.i64()};
}

} // namespace

// The JIT reads the read-only segment (the P-BOX) inline when a load
// misses the stack fast path; these pin that tail to SimMemory::read.

TEST(JitDifferentialTest, RODataLoadWidthsParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  std::vector<uint8_t> Init;
  for (unsigned I = 0; I != 32; ++I)
    Init.push_back(static_cast<uint8_t>(0x81 + 7 * I));
  GlobalVariable *Table = M.createGlobal(
      "table", B.getContext().getArrayTy(B.i8(), 32), Init, /*ReadOnly=*/true);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  // Unaligned offsets, one load per width, folded into one result.
  Value *Acc = B.constI64(0);
  int64_t Off = 1;
  for (Type *Ty : scalarTypes(B)) {
    Value *V = B.load(Ty, B.gepConst(Table, Off));
    Acc = B.add(B.mul(Acc, B.constI64(31)),
                Ty == B.i64() ? V : B.zext(B.i64(), V));
    Off += 5;
  }
  B.ret(Acc);
  expectJitParity(M, "main");

  Interpreter VM(M);
  ExecResult R = VM.run("main");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_NE(R.ReturnValue, 0u);
}

TEST(JitDifferentialTest, RODataLoadEndingAtSegmentEndParity) {
  SKIP_WITHOUT_JIT();
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Module M("t");
    IRBuilder B(M);
    Type *Ty = scalarTypes(B)[W == 1 ? 0 : W == 2 ? 1 : W == 4 ? 2 : 3];
    buildRawLoad(M, MemoryMap::RODataBase + MemoryMap::RODataSize - W, Ty);
    expectJitParity(M, "main");
    InterpreterOptions Opts;
    Opts.UseJit = true;
    Opts.JitThreshold = 0;
    Interpreter VM(M, nullptr, Opts);
    ExecResult R = VM.run("main");
    EXPECT_TRUE(R.ok()) << "width " << W << ": " << R.Message;
  }
}

TEST(JitDifferentialTest, RODataLoadPastSegmentEndTrapsParity) {
  SKIP_WITHOUT_JIT();
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Module M("t");
    IRBuilder B(M);
    Type *Ty = scalarTypes(B)[W == 1 ? 0 : W == 2 ? 1 : W == 4 ? 2 : 3];
    buildRawLoad(M, MemoryMap::RODataBase + MemoryMap::RODataSize - W + 1,
                 Ty);
    expectJitParity(M, "main");
    InterpreterOptions Opts;
    Opts.UseJit = true;
    Opts.JitThreshold = 0;
    Interpreter VM(M, nullptr, Opts);
    EXPECT_EQ(VM.run("main").Trap, TrapKind::UnmappedAccess) << "width " << W;
  }
}

TEST(JitDifferentialTest, RODataStoreTrapsReadOnlyParity) {
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  GlobalVariable *Table = M.createGlobal(
      "table", B.getContext().getArrayTy(B.i8(), 16), {1, 2, 3},
      /*ReadOnly=*/true);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.store(B.constI32(7), B.gepConst(Table, 4));
  B.ret(B.load(B.i64(), Table));
  expectJitParity(M, "main");
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);
  EXPECT_EQ(VM.run("main").Trap, TrapKind::ReadOnlyViolation);
}

namespace {

/// A multi-function call kernel: main() calls mid() 40 times, and mid()
/// calls the three-alloca leaf() twice, so hardened prologues run at two
/// depths with values flowing through every frame.
constexpr const char *CallKernelIR = R"(
define i64 @leaf(i64 %x) {
entry:
  %a = alloca i64, align 8
  %b = alloca [16 x i8], align 1
  %c = alloca i32, align 4
  store i64 %x, ptr %a
  store i8 1, ptr %b
  store i32 2, ptr %c
  %v = load i64, ptr %a
  %w = add i64 %v, i64 3
  ret i64 %w
}

define i64 @mid(i64 %x, i64 %y) {
entry:
  %s = alloca [24 x i8], align 8
  %t = alloca i16, align 2
  store i16 9, ptr %t
  %l = call i64 @leaf(i64 %x)
  %r = call i64 @leaf(i64 %y)
  %m = mul i64 %l, i64 %r
  store i64 %m, ptr %s
  %o = load i64, ptr %s
  ret i64 %o
}

define i64 @main() {
entry:
  %i = alloca i64, align 8
  %acc = alloca i64, align 8
  store i64 0, ptr %i
  store i64 1, ptr %acc
  br label %loop
loop:
  %c = load i64, ptr %i
  %more = icmp slt i64 %c, i64 40
  br i8 %more, label %body, label %exit
body:
  %a0 = load i64, ptr %acc
  %r = call i64 @mid(i64 %a0, i64 %c)
  %x = xor i64 %r, i64 %c
  store i64 %x, ptr %acc
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %i
  br label %loop
exit:
  %res = load i64, ptr %acc
  ret i64 %res
}
)";

std::unique_ptr<Module> hardenedCallKernel() {
  ParseResult R = parseModule(CallKernelIR, "calls");
  EXPECT_TRUE(R.ok()) << R.Error;
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(*R.M);
  EXPECT_TRUE(verifyModule(*R.M));
  return std::move(R.M);
}

uint64_t statValue(const char *Name) {
  Statistic *S = findStatistic(Name);
  EXPECT_NE(S, nullptr) << Name;
  return S ? S->value() : 0;
}

/// Records every LayoutObserver callback in order.
struct RecordingObserver : LayoutObserver {
  std::vector<std::string> Events;
  void onAlloca(const Function &F, const AllocaInst &A, uint64_t Addr,
                uint64_t Size) override {
    Events.push_back("alloca " + F.getName() + " " + A.getName() + " " +
                     std::to_string(Addr) + " " + std::to_string(Size));
  }
  void onVariableAddress(const Function &F, const std::string &Name,
                         uint64_t Addr) override {
    Events.push_back("var " + F.getName() + " " + Name + " " +
                     std::to_string(Addr));
  }
  void onFunctionEnter(const Function &F) override {
    Events.push_back("enter " + F.getName());
  }
};

} // namespace

TEST(JitDifferentialTest, HardenedCallKernelParityPerRngScheme) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = hardenedCallKernel();
  std::vector<std::string> Schemes = {"pseudo", "aes1", "aes10"};
  if (rdRandAvailable())
    Schemes.push_back("rdrand");
  for (const std::string &Scheme : Schemes) {
    SCOPED_TRACE(Scheme);
    expectJitParity(*M, "main", /*Seed=*/0xCA11, InterpreterOptions(),
                    Scheme);
  }
  // The same kernel with a failing check: a trap class, not a return.
  InterpreterOptions Tight;
  Tight.Fuel = 1500;
  expectJitParity(*M, "main", /*Seed=*/0xCA11, Tight, "pseudo");
  Tight.MaxCallDepth = 1;
  expectJitParity(*M, "main", /*Seed=*/0xCA11, Tight, "aes10");
}

namespace {

/// A source whose every draw fails closed.
class DeadSource : public RandomSource {
public:
  uint64_t next() override {
    setDrawStatus(DrawStatus::Failed);
    return 0;
  }
  const char *name() const override { return "dead"; }
  SecurityLevel securityLevel() const override { return SecurityLevel::High; }
};

} // namespace

TEST(JitDifferentialTest, RandShimTrapsLikeDispatchBuiltin) {
  // smokestack.rand call sites skip dispatchBuiltin on the JIT (ssJitRand);
  // a failed draw and a missing source must still trap exactly as the
  // decoded engine does.
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = hardenedCallKernel();
  InterpreterOptions DecodedOpts, JitOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;
  DeadSource DecodedDead, JitDead;
  for (bool Bound : {true, false}) {
    SCOPED_TRACE(Bound ? "failing source" : "no source");
    Interpreter DecodedVM(*M, Bound ? &DecodedDead : nullptr, DecodedOpts);
    Interpreter JitVM(*M, Bound ? &JitDead : nullptr, JitOpts);
    ExecResult D = DecodedVM.run("main"), J = JitVM.run("main");
    EXPECT_EQ(J.Trap, Bound ? TrapKind::RandomnessFailure : TrapKind::BadCall);
    EXPECT_EQ(D.Trap, J.Trap);
    EXPECT_EQ(D.Message, J.Message);
    EXPECT_EQ(D.Steps, J.Steps);
    EXPECT_GT(JitVM.jitCompiledFunctions(), 0u);
  }
}

TEST(JitDifferentialTest, ObserverCallbacksParity) {
  // While an observer is bound every frame runs on the decoded engine,
  // which makes the callbacks: a JIT-enabled VM must report exactly the
  // decoded engine's callbacks, in order, and enter no compiled code.
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = hardenedCallKernel();
  InterpreterOptions DecodedOpts, JitOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;
  DeterministicEntropySource DecodedEntropy(5), JitEntropy(5);
  AesCtrRandomSource DecodedRng(DecodedEntropy, 10), JitRng(JitEntropy, 10);
  Interpreter DecodedVM(*M, &DecodedRng, DecodedOpts);
  Interpreter JitVM(*M, &JitRng, JitOpts);
  RecordingObserver DecodedObs, JitObs;
  DecodedVM.setLayoutObserver(&DecodedObs);
  JitVM.setLayoutObserver(&JitObs);
  uint64_t Native = statValue("jit.native-calls");
  ExecResult DecodedR = DecodedVM.run("main");
  ExecResult JitR = JitVM.run("main");
  ASSERT_TRUE(DecodedR.ok()) << DecodedR.Message;
  EXPECT_EQ(DecodedR.ReturnValue, JitR.ReturnValue);
  EXPECT_EQ(DecodedR.Steps, JitR.Steps);
  EXPECT_GT(DecodedObs.Events.size(), 400u);
  EXPECT_EQ(DecodedObs.Events, JitObs.Events);
  EXPECT_EQ(statValue("jit.native-calls"), Native);

  // Unbinding the observer lets the JIT compile and run the code; the run
  // must still match the decoded engine's.
  DecodedVM.setLayoutObserver(nullptr);
  JitVM.setLayoutObserver(nullptr);
  DecodedR = DecodedVM.run("main");
  JitR = JitVM.run("main");
  EXPECT_EQ(DecodedR.ReturnValue, JitR.ReturnValue);
  EXPECT_EQ(DecodedR.Steps, JitR.Steps);
  EXPECT_EQ(DecodedObs.Events.size(), JitObs.Events.size());
}

TEST(JitDifferentialTest, StaticAllocaStackOverflowParity) {
  // Two 3 MB static allocas overflow the 4 MiB stack on the second: the
  // inline alloca stencil must leave through the shim and trap with the
  // decoded engine's message, stack pointer and low-water mark.
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Big1 =
      B.alloca_(B.getContext().getArrayTy(B.i8(), 3000000), "big1");
  AllocaInst *Big2 =
      B.alloca_(B.getContext().getArrayTy(B.i8(), 3000000), "big2");
  B.store(B.constI8(1), Big1);
  B.store(B.constI8(2), Big2);
  B.ret(B.constI64(0));
  expectJitParity(M, "main");
  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);
  EXPECT_EQ(VM.run("main").Trap, TrapKind::StackOverflow);
}

TEST(JitDifferentialTest, TrapRecoveryScrubsInlineAllocas) {
  // Post-trap recovery scrubs the stack from the run's low-water mark, so
  // the inline alloca stencil must lower StackLowWater exactly as
  // materializeAlloca does: a 200 KB frame reaches below the scrub slack,
  // and its bytes must be zero after the trapped request, under both
  // engines.
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  Type *Big = B.getContext().getArrayTy(B.i8(), 200000);
  Function *Probe = M.createFunction("probe", B.i64(), {});
  B.setInsertPoint(Probe->createBlock("entry"));
  B.ret(B.cast_(CastInst::CastOp::PtrToInt, B.i64(), B.alloca_(Big, "buf")));
  Function *Crash = M.createFunction("crash", B.i64(), {});
  B.setInsertPoint(Crash->createBlock("entry"));
  B.store(B.constI8(0xAB), B.alloca_(Big, "buf"));
  B.unreachable_();

  for (bool UseJit : {false, true}) {
    InterpreterOptions Opts;
    Opts.UseJit = UseJit;
    Opts.JitThreshold = 0;
    Interpreter VM(M, nullptr, Opts);
    ExecResult P = VM.run("probe");
    ASSERT_TRUE(P.ok()) << P.Message;
    ExecResult R = VM.runRequest("crash");
    ASSERT_EQ(R.Trap, TrapKind::ExplicitTrap);
    uint8_t Byte = 0xFF;
    ASSERT_TRUE(VM.memory().read(P.ReturnValue, &Byte, 1));
    EXPECT_EQ(Byte, 0u) << (UseJit ? "jit" : "decoded");
  }
}

// Native-to-native calls (jit/JitAbi.h): a compiled caller enters a
// compiled callee without the interpreter, and falls back to the shim at
// the depth limit and while the callee has no code yet. Each fallback
// must keep the decoded engine's books.

namespace {

/// rec(n) = n == 0 ? 0 : rec(n - 1) + 1, and main() = rec(\p N): the
/// deepest frame, rec(0), runs at depth N + 1.
void buildCountedRecursion(Module &M, uint64_t N) {
  IRBuilder B(M);
  Function *Rec = M.createFunction("rec", B.i64(), {B.i64()});
  BasicBlock *Entry = Rec->createBlock("entry");
  BasicBlock *Base = Rec->createBlock("base");
  BasicBlock *Step = Rec->createBlock("step");
  B.setInsertPoint(Entry);
  Value *Arg = Rec->getArg(0);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, Arg, B.constI64(0)), Base, Step);
  B.setInsertPoint(Base);
  B.ret(B.constI64(0));
  B.setInsertPoint(Step);
  B.ret(B.add(B.call(Rec, {B.sub(Arg, B.constI64(1))}), B.constI64(1)));
  Function *Main = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(Main->createBlock("entry"));
  B.ret(B.call(Rec, {B.constI64(N)}));
}

} // namespace

TEST(JitDifferentialTest, NativeRecursionToExactlyMaxCallDepth) {
  // With MaxCallDepth 16, rec(15) bottoms out at depth 16 and returns;
  // rec(16) needs depth 17, and the native call at depth 16 must hand the
  // call to the shim, which traps exactly as the decoded engine does.
  SKIP_WITHOUT_JIT();
  InterpreterOptions Opts;
  Opts.MaxCallDepth = 16;
  for (uint64_t N : {15u, 16u}) {
    SCOPED_TRACE(N);
    Module M("t");
    buildCountedRecursion(M, N);
    expectJitParity(M, "main", 0, Opts);

    InterpreterOptions JitOpts = Opts;
    JitOpts.UseJit = true;
    JitOpts.JitThreshold = 0;
    Interpreter VM(M, nullptr, JitOpts);
    VM.run("main"); // compiles rec on its first (shim) call
    uint64_t Shim = statValue("jit.shim-calls");
    ExecResult R = VM.run("main");
    if (N == 15) {
      ASSERT_TRUE(R.ok()) << R.Message;
      EXPECT_EQ(R.ReturnValue, 15u);
      EXPECT_EQ(statValue("jit.shim-calls") - Shim, 0u);
    } else {
      EXPECT_EQ(R.Trap, TrapKind::StackOverflow);
      EXPECT_EQ(R.Message, "call depth limit reached in rec");
      EXPECT_EQ(statValue("jit.shim-calls") - Shim, 1u);
    }
  }
}

TEST(JitDifferentialTest, BoundObserverSeesEveryFunctionEnter) {
  // The code is compiled while no observer is bound; binding one keeps
  // every frame on the decoded engine, where callDecoded reports
  // onFunctionEnter.
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = hardenedCallKernel();
  InterpreterOptions DecodedOpts, JitOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;
  DeterministicEntropySource DecodedEntropy(9), JitEntropy(9);
  AesCtrRandomSource DecodedRng(DecodedEntropy, 10), JitRng(JitEntropy, 10);
  Interpreter DecodedVM(*M, &DecodedRng, DecodedOpts);
  Interpreter JitVM(*M, &JitRng, JitOpts);
  ASSERT_TRUE(DecodedVM.run("main").ok());
  ASSERT_TRUE(JitVM.run("main").ok());

  RecordingObserver DecodedObs, JitObs;
  DecodedVM.setLayoutObserver(&DecodedObs);
  JitVM.setLayoutObserver(&JitObs);
  ExecResult DecodedR = DecodedVM.run("main");
  ExecResult JitR = JitVM.run("main");
  ASSERT_TRUE(JitR.ok()) << JitR.Message;
  EXPECT_EQ(DecodedR.ReturnValue, JitR.ReturnValue);
  EXPECT_EQ(DecodedR.Steps, JitR.Steps);
  auto Enters = [](const RecordingObserver &O) {
    return std::count_if(O.Events.begin(), O.Events.end(),
                         [](const std::string &E) {
                           return E.rfind("enter ", 0) == 0;
                         });
  };
  // main, 40 mid() and 80 leaf() frames.
  EXPECT_EQ(Enters(JitObs), 121);
  EXPECT_EQ(static_cast<uint64_t>(Enters(JitObs)), JitVM.callsExecuted());
  EXPECT_EQ(DecodedObs.Events, JitObs.Events);
}

TEST(JitDifferentialTest, CalleeCompiledMidRunCountsEveryNativeCall) {
  // At threshold 8, outer() tiers up on its 9th call of the first run,
  // while inner() — first called at i = 20 — is still cold: its first
  // eight calls from compiled outer() take the shim, its 9th compiles it,
  // and the rest run native-to-native. jit.native-calls must count every
  // invocation after its function's tier-up: the decoded run's calls
  // minus main's one and outer's and inner's first eight.
  SKIP_WITHOUT_JIT();
  ParseResult PR = parseModule(R"(
define i64 @inner(i64 %x) {
entry:
  %s = alloca i64, align 8
  store i64 %x, ptr %s
  %v = load i64, ptr %s
  %w = mul i64 %v, i64 3
  ret i64 %w
}

define i64 @outer(i64 %i) {
entry:
  %late = icmp uge i64 %i, i64 20
  br i8 %late, label %hot, label %cold
hot:
  %r = call i64 @inner(i64 %i)
  ret i64 %r
cold:
  ret i64 %i
}

define i64 @main() {
entry:
  %i = alloca i64, align 8
  %acc = alloca i64, align 8
  store i64 0, ptr %i
  store i64 0, ptr %acc
  br label %loop
loop:
  %c = load i64, ptr %i
  %more = icmp ult i64 %c, i64 50
  br i8 %more, label %body, label %exit
body:
  %r = call i64 @outer(i64 %c)
  %a0 = load i64, ptr %acc
  %a1 = add i64 %a0, i64 %r
  store i64 %a1, ptr %acc
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %i
  br label %loop
exit:
  %res = load i64, ptr %acc
  ret i64 %res
}
)",
                               "tier");
  ASSERT_TRUE(PR.ok()) << PR.Error;
  Module &M = *PR.M;
  InterpreterOptions DecodedOpts, JitOpts;
  JitOpts.UseJit = true; // JitThreshold stays at its default of 8
  ASSERT_EQ(JitOpts.JitThreshold, 8u);
  Interpreter DecodedVM(M, nullptr, DecodedOpts), JitVM(M, nullptr, JitOpts);
  ExecResult D = DecodedVM.run("main");
  ASSERT_TRUE(D.ok()) << D.Message;
  const uint64_t Calls = DecodedVM.callsExecuted();
  ASSERT_EQ(Calls, 1u + 50u + 30u);

  for (uint64_t TieredUp : {1u + 8u + 8u, 1u}) {
    SCOPED_TRACE(TieredUp);
    uint64_t Native = statValue("jit.native-calls");
    ExecResult J = JitVM.run("main");
    EXPECT_EQ(J.Trap, D.Trap);
    EXPECT_EQ(J.ReturnValue, D.ReturnValue);
    EXPECT_EQ(J.Steps, D.Steps);
    EXPECT_EQ(JitVM.callsExecuted(), Calls);
    EXPECT_EQ(statValue("jit.native-calls") - Native, Calls - TieredUp);
  }
  EXPECT_EQ(JitVM.jitCompiledFunctions(), 2u); // main has run only twice
}

TEST(JitDifferentialTest, NativeCallsBuildLargeRegisterFiles) {
  // A native call writes the callee's register file itself, one store per
  // slot pair of zeros and one per constant. big() has 80 distinct
  // constants wider than 32 bits and 80 computed values, so its stores
  // reach past 8-bit displacements and its constants need 64-bit moves;
  // small() has a handful of each.
  SKIP_WITHOUT_JIT();
  Module M("t");
  IRBuilder B(M);
  Function *Big = M.createFunction("big", B.i64(), {B.i64(), B.i32()});
  B.setInsertPoint(Big->createBlock("entry"));
  Value *Acc = B.add(Big->getArg(0), B.zext(B.i64(), Big->getArg(1)));
  for (uint64_t I = 0; I != 80; ++I)
    Acc = B.xor_(B.mul(Acc, B.constI64(3)), B.constI64(0x1234567890ull + I));
  B.ret(Acc);
  Function *Small = M.createFunction("small", B.i32(), {B.i32()});
  B.setInsertPoint(Small->createBlock("entry"));
  B.ret(B.add(Small->getArg(0), B.constI32(7)));
  Function *Main = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(Main->createBlock("entry"));
  Value *V = B.constI64(5);
  for (int I = 0; I != 3; ++I) {
    Value *S = B.call(Small, {B.trunc(B.i32(), V)});
    V = B.call(Big, {V, S});
  }
  B.ret(V);
  ASSERT_TRUE(verifyModule(M));
  expectJitParity(M, "main");

  InterpreterOptions Opts;
  Opts.UseJit = true;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);
  ExecResult First = VM.run("main");
  uint64_t Shim = statValue("jit.shim-calls");
  ExecResult Second = VM.run("main");
  EXPECT_EQ(statValue("jit.shim-calls") - Shim, 0u);
  EXPECT_EQ(First.ReturnValue, Second.ReturnValue);
  EXPECT_EQ(First.Steps, Second.Steps);
}

