//===- tests/jit/JitPrologueTest.cpp - The native hardened prologue -------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three pieces that keep a Smokestack prologue in native code
/// (jit/JitAbi.h), each checked against the decoded engine for trap,
/// Steps (hence FuelLeft), return value and, where a chain draws, every
/// RequestRng book:
///
///  * a native call zeroes only the callee slots that some path reads
///    before writing (DecodedFunction::ReadFirstSlots), so a use its def
///    does not dominate still reads 0 right after a call that left other
///    values in the same register-stack region;
///  * a P-BOX row is bounds-checked once, and a row whose offset runs past
///    its global — inside the read-only segment or off its end — reads or
///    traps exactly as the decoded engine does, at every fuel budget;
///  * the chain's healthy draw applies only to a healthy chain: a plan in
///    which every source fails, a failed-over chain and a batched chain
///    take the full draw, with identical books.
///
//===----------------------------------------------------------------------===//

#include "common/JitSweep.h"
#include "faults/FaultInjector.h"
#include "support/Statistics.h"
#include "vm/DecodedProgram.h"

#include <gtest/gtest.h>

#include <string>

using namespace smokestack;
using namespace smokestack::jit_sweep;

namespace {

/// The VM's Fig. 3 kernel (bench/interp_throughput) at 40 calls.
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
  %r = call i64 @leaf(i64 %a0)
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

/// fill() leaves 12, 36 and 40 in slots 1-3 of its register file; peek(x)
/// then runs at the same depth, so its file is the same words. Its %v
/// (slot 2) is defined only when x != 0 and read either way: peek(0) must
/// read the zero its entry wrote, not fill's 36. main returns
/// peek(0) + peek(1) = 0 + 100.
constexpr const char *UndominatedUseIR = R"(
define i64 @fill(i64 %x) {
entry:
  %a = add i64 %x, i64 7
  %b = mul i64 %a, i64 3
  %c = xor i64 %b, i64 %a
  ret i64 %c
}

define i64 @peek(i64 %x) {
entry:
  %t = icmp ne i64 %x, i64 0
  br i8 %t, label %def, label %use
def:
  %v = add i64 %x, i64 99
  br label %use
use:
  ret i64 %v
}

define i64 @main() {
entry:
  %f = call i64 @fill(i64 5)
  %p = call i64 @peek(i64 0)
  %g = call i64 @fill(i64 6)
  %q = call i64 @peek(i64 1)
  %s = add i64 %p, i64 %q
  ret i64 %s
}
)";

/// A four-word read-only "P-BOX" and a row of three loads off it at the
/// row offset %ROW% (read from the stack, so nothing folds it), summed.
std::string pboxRowIR(uint64_t RowOffset) {
  std::string IR = R"(
@box = constant [4 x i32] bytes [ 1 0 0 0 2 0 0 0 3 0 0 0 4 0 0 0 ]

define i64 @main() {
entry:
  %s = alloca i64, align 8
  store i64 %ROW%, ptr %s
  %r = load i64, ptr %s
  %p0 = gep ptr @box + i64 %r * 1
  %o0 = load i32, ptr %p0
  %p1 = gep ptr @box + i64 %r * 1 + 4
  %o1 = load i32, ptr %p1
  %z0 = zext i32 %o0 to i64
  %p2 = gep ptr @box + i64 %r * 1 + 8
  %o2 = load i32, ptr %p2
  %z1 = zext i32 %o1 to i64
  %z2 = zext i32 %o2 to i64
  %s0 = add i64 %z0, i64 %z1
  %s1 = add i64 %s0, i64 %z2
  ret i64 %s1
}
)";
  IR.replace(IR.find("%ROW%"), 5, std::to_string(RowOffset));
  return IR;
}

const DecodedFunction &decoded(const DecodedProgram &P, const Module &M,
                               const char *Name) {
  const DecodedFunction *DF = P.find(M.getFunction(Name));
  EXPECT_NE(DF, nullptr) << Name;
  return *DF;
}

uint64_t nativeCalls() {
  Statistic *S = findStatistic("jit.native-calls");
  EXPECT_NE(S, nullptr);
  return S ? S->value() : 0;
}

/// A FaultPlan in which the DRNG is dead and AES can never key: every
/// source of the chain fails from its first probe.
FaultPlan everySourceFails() {
  FaultPlan Plan;
  Plan.Seed = 0xFA11;
  Plan.site(FaultSite::RdRandDeath).FailFromProbe = 1;
  Plan.site(FaultSite::RekeyEntropy).FailFromProbe = 1;
  Plan.site(FaultSite::EntropyFill).FailFromProbe = 1;
  return Plan;
}

/// One engine serving `main` from a pool worker's chain.
struct ChainVM {
  RequestRng Chain;
  std::unique_ptr<Interpreter> VM;

  ChainVM(Module &M, bool Jit, RequestRng::Config C = RequestRng::Config())
      : Chain(C) {
    InterpreterOptions Opts;
    Opts.UseJit = Jit;
    Opts.JitThreshold = 0;
    VM = std::make_unique<Interpreter>(M, nullptr, Opts);
  }
  /// Reseeds as request \p Index and binds the chain.
  void reseed(uint64_t Index) {
    Chain.reseed(0xD1CE, Index);
    VM->setRandomSource(&Chain.source());
  }
};

void expectSameRun(const ExecResult &D, const ExecResult &J,
                   const RequestRng &DC, const RequestRng &JC) {
  EXPECT_EQ(trapKindName(D.Trap), trapKindName(J.Trap));
  EXPECT_EQ(D.Steps, J.Steps);
  EXPECT_EQ(D.ReturnValue, J.ReturnValue);
  EXPECT_EQ(D.Message, J.Message);
  EXPECT_EQ(booksString(DC.books()), booksString(JC.books()));
}

} // namespace

TEST(JitPrologueTest, ReadFirstSlotsFollowDominance) {
  std::unique_ptr<Module> Undominated = parse(UndominatedUseIR);
  DecodedProgram P(*Undominated);
  // peek: %x = 0, %t = 1, %v = 2; only %v is read on a path without its
  // def. fill and main define every value before its uses.
  EXPECT_EQ(decoded(P, *Undominated, "peek").ReadFirstSlots,
            std::vector<uint32_t>{2});
  EXPECT_TRUE(decoded(P, *Undominated, "fill").ReadFirstSlots.empty());
  EXPECT_TRUE(decoded(P, *Undominated, "main").ReadFirstSlots.empty());

  // The hardened leaf zeroes nothing: every prologue value, and the loop
  // values of main (defined in the header, read in the body and exit),
  // are written before they are read.
  std::unique_ptr<Module> Hard = parse(CallKernelIR, /*Hardened=*/true);
  DecodedProgram HP(*Hard);
  EXPECT_TRUE(decoded(HP, *Hard, "leaf").ReadFirstSlots.empty());
  EXPECT_TRUE(decoded(HP, *Hard, "main").ReadFirstSlots.empty());
}

TEST(JitPrologueTest, UndominatedUseReadsZeroAfterADirtyFrame) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(UndominatedUseIR);
  ExecResult D = runAt(*M, false, InterpreterOptions().Fuel, false);
  ASSERT_TRUE(D.ok()) << D.Message;
  EXPECT_EQ(D.ReturnValue, 100u);
  // Compile everything, then count the calls of a second run: main from
  // C++, its four calls native-to-native.
  SweepVM Jit(*M, true, "");
  Jit.run(InterpreterOptions().Fuel, false);
  uint64_t Before = nativeCalls();
  ExecResult J = Jit.run(InterpreterOptions().Fuel, false);
  EXPECT_EQ(nativeCalls() - Before, 5u);
  EXPECT_EQ(J.ReturnValue, 100u);
  EXPECT_EQ(J.Steps, D.Steps);
  expectFuelParity(*M);
}

TEST(JitPrologueTest, PBoxRowInsideTheGlobal) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(pboxRowIR(0).c_str());
  ExecResult J = runAt(*M, true, InterpreterOptions().Fuel, false);
  ASSERT_TRUE(J.ok()) << J.Message;
  EXPECT_EQ(J.ReturnValue, 6u);
  expectFuelParity(*M);
}

TEST(JitPrologueTest, PBoxRowPastTheGlobalTrapsIdentically) {
  SKIP_WITHOUT_JIT();
  const uint64_t End = MemoryMap::RODataSize; // offset of the segment's end
  struct Case {
    uint64_t RowOffset;
    TrapKind Trap;
  } Cases[] = {
      // Past the 16-byte global, still inside the read-only segment: the
      // row reads zeros under both engines.
      {0x100, TrapKind::None},
      // The first load is the segment's last word, the second runs off
      // its end: the row check fails and the decoded path traps there.
      {End - 4, TrapKind::UnmappedAccess},
      // The third load straddles the end.
      {End - 10, TrapKind::UnmappedAccess},
      // Far off any segment: the first load traps.
      {uint64_t(1) << 40, TrapKind::UnmappedAccess},
      // An offset that wraps the address below the segment's base.
      {~uint64_t(0) - 3, TrapKind::UnmappedAccess},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.RowOffset);
    std::unique_ptr<Module> M = parse(pboxRowIR(C.RowOffset).c_str());
    ExecResult D = runAt(*M, false, InterpreterOptions().Fuel, false);
    ExecResult J = runAt(*M, true, InterpreterOptions().Fuel, false);
    EXPECT_EQ(trapKindName(D.Trap), trapKindName(C.Trap));
    EXPECT_EQ(trapKindName(J.Trap), trapKindName(D.Trap));
    EXPECT_EQ(J.Steps, D.Steps);
    EXPECT_EQ(J.Message, D.Message);
    EXPECT_EQ(J.ReturnValue, D.ReturnValue);
    expectFuelParity(*M);
  }
}

TEST(JitPrologueTest, EverySourceFailingFailsClosedAtTheSameStep) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(CallKernelIR, /*Hardened=*/true);
  ChainVM Decoded(*M, false), Jit(*M, true);
  for (uint64_t Index = 0; Index != 3; ++Index) {
    ExecResult D, J;
    {
      FaultInjector Injector(everySourceFails());
      FaultScope Scope(Injector);
      Decoded.reseed(Index);
      D = Decoded.VM->runRequest("main");
    }
    {
      FaultInjector Injector(everySourceFails());
      FaultScope Scope(Injector);
      Jit.reseed(Index);
      J = Jit.VM->runRequest("main");
    }
    EXPECT_EQ(D.Trap, TrapKind::RandomnessFailure);
    expectSameRun(D, J, Decoded.Chain, Jit.Chain);
  }
  EXPECT_EQ(Jit.Chain.books().FailClosedDraws, 3u);
}

TEST(JitPrologueTest, FailedOverChainTakesTheFullDraw) {
  // A chain that failed over before the request (its primary died on one
  // probe) is not healthy: the request's one draw, in compiled code,
  // takes the full path, which re-adopts the now-healthy primary. (With
  // more draws a later one could run through a segment's slow path and
  // re-adopt it there, hiding a healthy path taken too early.)
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(R"(
define i64 @main() {
entry:
  %a = alloca i64, align 8
  store i64 7, ptr %a
  %v = load i64, ptr %a
  ret i64 %v
}
)", /*Hardened=*/true);
  ChainVM Decoded(*M, false), Jit(*M, true);
  for (ChainVM *V : {&Decoded, &Jit}) {
    V->reseed(0);
    FaultPlan Plan;
    Plan.site(FaultSite::RdRandDeath).StreakLen = 1;
    Plan.site(FaultSite::RdRandDeath).Probability = 1.0;
    FaultInjector Injector(Plan);
    FaultScope Scope(Injector);
    uint64_t Out = 0;
    ASSERT_TRUE(V->Chain.source().tryNext(Out));
    ASSERT_EQ(V->Chain.source().activeIndex(), 1u);
  }
  ExecResult D = Decoded.VM->runRequest("main");
  ExecResult J = Jit.VM->runRequest("main");
  ASSERT_TRUE(J.ok()) << J.Message;
  EXPECT_EQ(J.ReturnValue, 7u);
  expectSameRun(D, J, Decoded.Chain, Jit.Chain);
  EXPECT_EQ(Jit.Chain.books().DrawsServed, 2u);
  EXPECT_EQ(Jit.Chain.books().Recoveries, 1u);
  EXPECT_EQ(Jit.Chain.source().activeIndex(), 0u);
}

TEST(JitPrologueTest, BatchedChainTakesTheFullDraw) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(CallKernelIR, /*Hardened=*/true);
  RequestRng::Config C;
  C.BatchSize = 8;
  ChainVM Decoded(*M, false, C), Jit(*M, true, C);
  for (uint64_t Index = 0; Index != 3; ++Index) {
    Decoded.reseed(Index);
    Jit.reseed(Index);
    ExecResult D = Decoded.VM->runRequest("main");
    ExecResult J = Jit.VM->runRequest("main");
    ASSERT_TRUE(J.ok()) << J.Message;
    expectSameRun(D, J, Decoded.Chain, Jit.Chain);
  }
  EXPECT_GT(Jit.Chain.books().BufferRefills, 0u);
}
