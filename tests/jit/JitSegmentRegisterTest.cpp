//===- tests/jit/JitSegmentRegisterTest.cpp - Private values at exits -----===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT keeps a fuel segment's own values in host registers and writes
/// them to the register file only on the way to a shim; constants are
/// immediates, and a natively entered frame's file holds none of them
/// (jit/JitAbi.h, "Segment-private values"). These tests pin which slots
/// of the hardened prologue are private, then drive every out-of-line
/// exit of an inlined stencil while its operands — and values that live
/// across it — are private: an off-stack load and a store to a global,
/// a P-BOX row whose bounds check fails, and a static alloca that
/// overflows the stack, plus shims that read constants in a natively
/// entered frame, and more live private values than pool registers. Every case must match the decoded engine's result,
/// output, trap kind, message and steps, and then at every fuel budget
/// (jit/JitSweep.h), so each segment head's slow path and its reload run
/// too. The every-budget sweep of the hardened call kernel per seeded
/// scheme is JitFuelSegmentTest.HardenedCallKernelEveryBudget.
///
//===----------------------------------------------------------------------===//

#include "common/JitSweep.h"
#include "jit/JitCompiler.h"
#include "support/Statistics.h"
#include "vm/DecodedProgram.h"
#include "vm/SimMemory.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace smokestack;
using namespace smokestack::jit_sweep;

namespace {

/// The VM's Fig. 3 leaf (bench/interp_throughput), called from a loop.
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
  store i64 0, ptr %i
  br label %loop
loop:
  %c = load i64, ptr %i
  %more = icmp slt i64 %c, i64 4
  br i8 %more, label %body, label %exit
body:
  %r = call i64 @leaf(i64 %c)
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %i
  br label %loop
exit:
  ret i64 %c
}
)";

/// work(x) takes every shim exit that succeeds, with private operands and
/// with %k and %s live in registers across them: a store to a global, a
/// load from it (the read-only retry misses), a division and a print
/// (shim stencils reading constants and private values). main calls it
/// five times: the first call enters through C++ (its file holds the
/// constants), the rest natively (it holds none), each after scribble()
/// has written other values over the same words at the same depth.
constexpr const char *ShimExitsIR = R"(
@g = global [64 x i8] zeroinit

declare void @print_i64(i64)

define i64 @work(i64 %x) {
entry:
  %k = mul i64 %x, i64 7
  %p = gep ptr @g + i64 %x * 8
  store i64 %k, ptr %p
  %p1 = gep ptr @g + i64 %x * 8
  %v = load i64, ptr %p1
  %s = add i64 %v, i64 %k
  %q = udiv i64 %s, i64 3
  %t = add i64 %q, i64 1000000007
  call void @print_i64(i64 %t)
  %u = xor i64 %t, i64 %k
  %w = add i64 %u, i64 %s
  ret i64 %w
}

define i64 @scribble(i64 %x) {
entry:
  %s1 = add i64 %x, i64 1001
  %s2 = add i64 %x, i64 1002
  %s3 = add i64 %x, i64 1003
  %s4 = add i64 %x, i64 1004
  %s5 = add i64 %x, i64 1005
  %s6 = add i64 %x, i64 1006
  %s7 = add i64 %x, i64 1007
  %s8 = add i64 %x, i64 1008
  %s9 = add i64 %x, i64 1009
  %s10 = add i64 %x, i64 1010
  %s11 = add i64 %x, i64 1011
  %s12 = add i64 %x, i64 1012
  %s13 = add i64 %x, i64 1013
  %s14 = add i64 %x, i64 1014
  %s15 = add i64 %x, i64 1015
  %s16 = add i64 %x, i64 1016
  %s17 = add i64 %x, i64 1017
  %s18 = add i64 %x, i64 1018
  %s19 = add i64 %x, i64 1019
  %s20 = add i64 %x, i64 1020
  %s21 = add i64 %x, i64 1021
  %s22 = add i64 %x, i64 1022
  %s23 = add i64 %x, i64 1023
  %s24 = add i64 %x, i64 1024
  br label %sum
sum:
  %t1 = add i64 %s1, i64 0
  %t2 = add i64 %t1, i64 %s2
  %t3 = add i64 %t2, i64 %s3
  %t4 = add i64 %t3, i64 %s4
  %t5 = add i64 %t4, i64 %s5
  %t6 = add i64 %t5, i64 %s6
  %t7 = add i64 %t6, i64 %s7
  %t8 = add i64 %t7, i64 %s8
  %t9 = add i64 %t8, i64 %s9
  %t10 = add i64 %t9, i64 %s10
  %t11 = add i64 %t10, i64 %s11
  %t12 = add i64 %t11, i64 %s12
  %t13 = add i64 %t12, i64 %s13
  %t14 = add i64 %t13, i64 %s14
  %t15 = add i64 %t14, i64 %s15
  %t16 = add i64 %t15, i64 %s16
  %t17 = add i64 %t16, i64 %s17
  %t18 = add i64 %t17, i64 %s18
  %t19 = add i64 %t18, i64 %s19
  %t20 = add i64 %t19, i64 %s20
  %t21 = add i64 %t20, i64 %s21
  %t22 = add i64 %t21, i64 %s22
  %t23 = add i64 %t22, i64 %s23
  %t24 = add i64 %t23, i64 %s24
  ret i64 %t24
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
  %more = icmp slt i64 %c, i64 5
  br i8 %more, label %body, label %exit
body:
  %z = call i64 @scribble(i64 %c)
  %r = call i64 @work(i64 %c)
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
)";

/// press(x) keeps eight private values live at once, more than the five
/// pool registers: three must go to the register file at their
/// definition, and all eight live across a division's shim call.
constexpr const char *PressureIR = R"(
define i64 @press(i64 %x) {
entry:
  %v1 = mul i64 %x, i64 11
  %v2 = mul i64 %x, i64 12
  %v3 = mul i64 %x, i64 13
  %v4 = mul i64 %x, i64 14
  %v5 = mul i64 %x, i64 15
  %v6 = mul i64 %x, i64 16
  %v7 = mul i64 %x, i64 17
  %v8 = mul i64 %x, i64 18
  %d = udiv i64 %v8, i64 3
  %s1 = add i64 %v1, i64 %v2
  %s2 = add i64 %s1, i64 %v3
  %s3 = add i64 %s2, i64 %v4
  %s4 = add i64 %s3, i64 %v5
  %s5 = add i64 %s4, i64 %v6
  %s6 = add i64 %s5, i64 %v7
  %s7 = add i64 %s6, i64 %v8
  %r = add i64 %s7, i64 %d
  ret i64 %r
}

define i64 @main() {
entry:
  %a = call i64 @press(i64 3)
  %b = call i64 @press(i64 %a)
  %c = call i64 @press(i64 %b)
  ret i64 %c
}
)";

/// trap(x) traps at a shim exit of an inlined stencil whose operands are
/// private; %EXIT% picks which. main calls it with 0, then 1, so the
/// trapping call is natively entered.
std::string trapIR(const std::string &Exit) {
  std::string IR = R"(
@g = global [64 x i8] zeroinit
@ro = constant [16 x i8] bytes [ 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 ]

define i64 @trap(i64 %x) {
entry:
  %k = mul i64 %x, i64 7
  %EXIT%
  %r = add i64 %k, i64 %x
  ret i64 %r
}

define i64 @main() {
entry:
  %a = call i64 @trap(i64 0)
  %b = call i64 @trap(i64 1)
  %s = add i64 %a, i64 %b
  ret i64 %s
}
)";
  IR.replace(IR.find("%EXIT%"), 6, Exit);
  return IR;
}

/// The names of the private values \p Fn of \p M defines.
std::set<std::string> privateValues(Module &M, const char *Fn) {
  DecodedProgram P(M);
  const Function *F = M.getFunction(Fn);
  const DecodedFunction *DF = P.find(F);
  EXPECT_NE(DF, nullptr) << Fn;
  if (!DF)
    return {};
  std::vector<bool> Private = segmentPrivateSlots(*DF, fuelSegmentEnds(*DF));
  std::set<std::string> Names;
  size_t IP = 0;
  for (const auto &Block : *F)
    for (const auto &Inst : *Block) {
      uint32_t D = DF->Insts[IP++].Dest;
      if (D != DecodedInst::NoReg && Private[D])
        Names.insert(Inst->getName());
    }
  EXPECT_EQ(IP, DF->Insts.size());
  return Names;
}

/// The JIT and the decoded engine agree on one unlimited run of \p M:
/// result, trap kind, message, steps and output.
void expectSameRun(Module &M, TrapKind Expected) {
  InterpreterOptions DecodedOpts, JitOpts;
  JitOpts.UseJit = true;
  JitOpts.JitThreshold = 0;
  Interpreter DecodedVM(M, nullptr, DecodedOpts), JitVM(M, nullptr, JitOpts);
  ExecResult D = DecodedVM.run("main"), J = JitVM.run("main");
  EXPECT_EQ(std::string(trapKindName(D.Trap)), trapKindName(Expected))
      << D.Message;
  EXPECT_EQ(std::string(trapKindName(J.Trap)), trapKindName(D.Trap));
  EXPECT_EQ(J.Message, D.Message);
  EXPECT_EQ(J.Steps, D.Steps);
  EXPECT_EQ(J.ReturnValue, D.ReturnValue);
  EXPECT_EQ(JitVM.output(), DecodedVM.output());
  EXPECT_GT(JitVM.jitCompiledFunctions(), 0u);
}

uint64_t nativeCalls() {
  Statistic *S = findStatistic("jit.native-calls");
  EXPECT_NE(S, nullptr);
  return S ? S->value() : 0;
}

} // namespace

TEST(JitSegmentRegisterTest, HardenedLeafKeepsItsPrologueInRegisters) {
  // Of the hardened leaf's 26 results only the draw, the four variable
  // addresses and the returned sum are read by another segment; the row,
  // its offset, the P-BOX addresses, offsets and zexts, the frame, the
  // tag and the check temporaries never reach the register file on the
  // fast path.
  std::unique_ptr<Module> M = parse(CallKernelIR, /*Hardened=*/true);
  std::set<std::string> Private = privateValues(*M, "leaf");
  EXPECT_EQ(Private.size(), 20u);
  for (const char *Name :
       {"ss.frame", "ss.row", "ss.rowoff", "ss.offp.a", "ss.off.a", "t0",
        "ss.offp.fnid", "ss.off.fnid", "t3", "ss.tag", "v", "ss.tag.check",
        "ss.id.check", "ss.ok"})
    EXPECT_TRUE(Private.count(Name)) << Name;
  for (const char *Name :
       {"ss.rand", "a.ss", "b.ss", "c.ss", "__ss_fnid.ss", "w"})
    EXPECT_FALSE(Private.count(Name)) << Name;
  // The loop test feeds only its branch.
  EXPECT_TRUE(privateValues(*M, "main").count("more"));
}

TEST(JitSegmentRegisterTest, ShimExitsSeePrivateOperands) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(ShimExitsIR);
  std::set<std::string> Private = privateValues(*M, "work");
  for (const char *Name : {"k", "p", "p1", "v", "s", "q", "t", "u", "w"})
    EXPECT_TRUE(Private.count(Name)) << Name;
  uint64_t Native = nativeCalls();
  expectSameRun(*M, TrapKind::None);
  EXPECT_GE(nativeCalls() - Native, 8u);
  expectFuelParity(*M);
}

TEST(JitSegmentRegisterTest, MoreLiveValuesThanPoolRegisters) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(PressureIR);
  std::set<std::string> Private = privateValues(*M, "press");
  for (const char *Name : {"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"})
    EXPECT_TRUE(Private.count(Name)) << Name;
  expectSameRun(*M, TrapKind::None);
  expectFuelParity(*M);
}

TEST(JitSegmentRegisterTest, TrappingExitsWithPrivateOperands) {
  SKIP_WITHOUT_JIT();
  const uint64_t RowPastEnd = MemoryMap::RODataSize - 4;
  struct Case {
    const char *What;
    std::string Exit;
    TrapKind Trap;
    std::vector<std::string> Private;
  } Cases[] = {
      {"off-stack load",
       "%far = mul i64 %x, i64 1099511627776\n"
       "  %p = gep ptr @g + i64 %far * 1\n"
       "  %v = load i64, ptr %p\n"
       "  %k2 = add i64 %v, i64 %k",
       TrapKind::UnmappedAccess,
       {"k", "far", "p", "v"}},
      {"store to a global",
       "%p = gep ptr @ro + i64 %x * 4\n"
       "  %k2 = add i64 %k, i64 1\n"
       "  store i64 %k2, ptr %p",
       TrapKind::ReadOnlyViolation,
       {"k", "p", "k2"}},
      {"alloca overflow",
       "%a1 = alloca [3000000 x i8], align 16\n"
       "  %k2 = add i64 %k, i64 1\n"
       "  %a2 = alloca [3000000 x i8], align 16\n"
       "  %k3 = add i64 %k2, i64 %x",
       TrapKind::StackOverflow,
       {"k", "k2"}},
      {"P-BOX row past its segment",
       "%row = mul i64 %x, i64 " + std::to_string(RowPastEnd) +
           "\n"
           "  %o0p = gep ptr @ro + i64 %row * 1\n"
           "  %o0 = load i32, ptr %o0p\n"
           "  %o1p = gep ptr @ro + i64 %row * 1 + 4\n"
           "  %o1 = load i32, ptr %o1p\n"
           "  %z0 = zext i32 %o0 to i64\n"
           "  %z1 = zext i32 %o1 to i64\n"
           "  %k2 = add i64 %z0, i64 %z1",
       TrapKind::UnmappedAccess,
       {"k", "row", "o0p", "o0", "o1p", "o1", "z0", "z1"}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.What);
    std::unique_ptr<Module> M = parse(trapIR(C.Exit).c_str());
    std::set<std::string> Private = privateValues(*M, "trap");
    for (const std::string &Name : C.Private)
      EXPECT_TRUE(Private.count(Name)) << Name;
    expectSameRun(*M, C.Trap);
    expectFuelParity(*M);
  }
}
