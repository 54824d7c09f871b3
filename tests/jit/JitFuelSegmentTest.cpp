//===- tests/jit/JitFuelSegmentTest.cpp - Per-segment fuel parity ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT charges fuel once per straight-line segment (jit/JitAbi.h), the
/// decoded engine once per instruction. These tests run each kernel at
/// every fuel budget from 1 to 1024 + Steps + 1, with the cooperative
/// cancel flag off and on: fuel exhaustion and the cancel poll then land
/// on every instruction the kernel executes, every segment head takes
/// both its fast and its slow path (the per-instruction one with the flag
/// set or fuel short), and both engines must agree on Trap,
/// Steps, ReturnValue and Message at every budget (jit/JitSweep.h). The
/// kernels aim at segment boundaries: the hardened call kernel per RNG
/// scheme (a pool worker's chain included, whose books must agree too),
/// traps in the middle of a segment (an out-of-line load shim, the
/// division shim), a heap load that takes the shim and succeeds, a
/// function longer than the segment cap, a block that is a lone `br`, a
/// loop back-edge, and one block holding every non-control opcode.
///
/// Compiled callers enter compiled callees natively (jit/JitAbi.h), so
/// the sweeps also cross native call boundaries: the leaf-call kernel, a
/// mutually recursive pair, and a callee that traps mid-segment, each
/// checked to have taken the native path and not the shim.
///
/// Because a conservative head (slow path where the fast one was safe)
/// cannot change a result, the segmentation rules and the fast path's
/// exact boundary are pinned separately.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitCompiler.h"
#include "common/JitSweep.h"
#include "support/Statistics.h"
#include "vm/DecodedProgram.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace smokestack;
using namespace smokestack::jit_sweep;

namespace {

/// The VM's Fig. 3 kernel (bench/interp_throughput) at 40 calls: long
/// enough that the cancel sweep reaches every instruction of an iteration.
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

/// Builds `main`: one block of \p Adds chained adds on a stack value, then
/// ret — a single straight-line run of Adds + 4 instructions.
void buildStraightLine(Module &M, unsigned Adds) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Slot = B.alloca_(B.i64(), "s");
  B.store(B.constI64(1), Slot);
  Value *V = B.load(B.i64(), Slot);
  for (unsigned I = 0; I != Adds; ++I)
    V = B.add(V, B.constI64(I));
  B.ret(V);
}

uint64_t statValue(const char *Name) {
  Statistic *S = findStatistic(Name);
  EXPECT_NE(S, nullptr) << Name;
  return S ? S->value() : 0;
}

uint64_t slowSegments() { return statValue("jit.slow-segments"); }

/// Runs \p M's `main` on the JIT at full fuel after a warm-up run (which
/// compiles every function) and returns {native calls, shim calls}.
std::pair<uint64_t, uint64_t> callPaths(Module &M) {
  SweepVM Jit(M, true, "");
  Jit.run(InterpreterOptions().Fuel, false);
  uint64_t Native = statValue("jit.native-calls");
  uint64_t Shim = statValue("jit.shim-calls");
  Jit.run(InterpreterOptions().Fuel, false);
  return {statValue("jit.native-calls") - Native,
          statValue("jit.shim-calls") - Shim};
}

/// even(n)/odd(n) recursing into each other down to 0, each with a stack
/// slot and a few instructions on both sides of its call; main() calls
/// even(24) and odd(17). (Built, not parsed: the parser needs a callee
/// defined before its first call.)
void buildMutualRecursion(Module &M) {
  IRBuilder B(M);
  Function *Even = M.createFunction("even", B.i64(), {B.i64()});
  Function *Odd = M.createFunction("odd", B.i64(), {B.i64()});
  for (Function *F : {Even, Odd}) {
    Function *Other = F == Even ? Odd : Even;
    BasicBlock *Entry = F->createBlock("entry");
    BasicBlock *Base = F->createBlock("base");
    BasicBlock *Rec = F->createBlock("rec");
    B.setInsertPoint(Entry);
    Value *N = F->getArg(0);
    AllocaInst *Slot = B.alloca_(B.i64(), "s");
    B.store(N, Slot);
    B.condBr(B.icmp(ICmpInst::Predicate::EQ, N, B.constI64(0)), Base, Rec);
    B.setInsertPoint(Base);
    B.ret(B.constI64(F == Even ? 1 : 0));
    B.setInsertPoint(Rec);
    Value *R = B.call(Other, {B.sub(N, B.constI64(1))});
    Value *V = B.load(B.i64(), Slot);
    B.ret(F == Even ? B.xor_(R, V) : B.add(R, V));
  }
  Function *Main = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(Main->createBlock("entry"));
  Value *A = B.call(Even, {B.constI64(24)});
  Value *C = B.call(Odd, {B.constI64(17)});
  B.ret(B.add(B.mul(A, B.constI64(3)), C));
}

/// main() calls f(i) for i = 0, 1, ...; f divides by 5 - i in the middle
/// of a segment, so the sixth call traps inside native code with three
/// instructions of its segment charged but not run.
constexpr const char *TrappingCalleeIR = R"(
define i64 @f(i64 %i) {
entry:
  %s = alloca i64, align 8
  store i64 %i, ptr %s
  %v = load i64, ptr %s
  %d = sub i64 5, i64 %v
  %q = sdiv i64 100, i64 %d
  %r = add i64 %q, i64 %v
  %t = mul i64 %r, i64 7
  ret i64 %t
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
  %r = call i64 @f(i64 %c)
  %a0 = load i64, ptr %acc
  %a1 = add i64 %a0, i64 %r
  store i64 %a1, ptr %acc
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %i
  br label %loop
}
)";

/// One straight-line block holding every non-control DecodedOp: static
/// and VLA allocas, loads and stores (stack and heap), all four gep forms,
/// a builtin call, integer ALU ops with u/s div/rem and the three shifts,
/// FP arithmetic at both widths, int and float compares, the five cast
/// kinds and select. Every value feeds the result, a 31-fold of the
/// leaves: OutOfFuel lands on each instruction in turn, and a wrong case
/// body in either engine changes the return value.
constexpr const char *EveryOpcodeIR = R"(
declare ptr @malloc(i64)

define i64 @main() {
entry:
  %s = alloca i64, align 8
  store i64 7, ptr %s
  %n = load i64, ptr %s
  %vla = alloca i8, count i64 %n, align 1
  %arr = alloca [4 x i32], align 4
  %e0 = gep ptr %arr + 4
  store i32 -5, ptr %e0
  %e1.ss = gep ptr %arr + 8
  store i32 9, ptr %e1.ss
  %one = sub i64 %n, i64 6
  %e2 = gep ptr %arr + i64 %one * 4 + 8
  store i32 100, ptr %e2
  %e3.ss = gep ptr %arr + i64 %one * 4
  %a = load i32, ptr %e3.ss
  %b = load i32, ptr %e1.ss
  %c = load i32, ptr %e2
  %h = call ptr @malloc(i64 16)
  store i64 %n, ptr %h
  %hn = load i64, ptr %h
  %m = mul i64 %hn, i64 6
  %ud = udiv i64 %m, i64 %hn
  %ur = urem i64 %m, i64 5
  %sd = sdiv i32 %c, i32 %a
  %sr = srem i32 %a, i32 3
  %sh = shl i64 %ud, i64 %one
  %lr = lshr i64 %m, i64 2
  %ar = ashr i32 %sd, i32 2
  %an = and i64 %m, i64 15
  %or = or i64 %an, i64 %sh
  %x = xor i64 %or, i64 %lr
  %sx = sext i32 %ar to i64
  %fd = sitofp i32 %sd to double
  %fb = sitofp i32 %b to double
  %fa = fadd double %fd, double %fb
  %fs = fsub double %fa, double 0.5
  %fm = fmul double %fs, double 4
  %fv = fdiv double %fm, double %fb
  %ff = fptrunc double %fv to float
  %fq = fadd float %ff, float 0.25
  %fe = fpext float %fq to double
  %fg = fmul double %fe, double 1000000000
  %fi = fptosi double %fg to i64
  %lt = icmp olt double %fe, double %fs
  %ge = icmp oge double %fm, double -46
  %cmp = icmp slt i64 %fi, i64 %sx
  %sel = select i8 %lt, i64 %fi, i64 %x
  %z = zext i8 %ge to i64
  %zc = zext i8 %cmp to i64
  %t8 = trunc i64 %fi to i8
  %t = zext i8 %t8 to i64
  %va = ptrtoint ptr %vla to i64
  %aa = ptrtoint ptr %arr to i64
  %gap = sub i64 %va, i64 %aa
  %sdx = sext i32 %sd to i64
  %srx = sext i32 %sr to i64
  %r0 = mul i64 %gap, i64 31
  %r1 = add i64 %r0, i64 %ud
  %r2 = mul i64 %r1, i64 31
  %r3 = add i64 %r2, i64 %ur
  %r4 = mul i64 %r3, i64 31
  %r5 = add i64 %r4, i64 %sdx
  %r6 = mul i64 %r5, i64 31
  %r7 = add i64 %r6, i64 %srx
  %r8 = mul i64 %r7, i64 31
  %r9 = add i64 %r8, i64 %sel
  %r10 = mul i64 %r9, i64 31
  %r11 = add i64 %r10, i64 %z
  %r12 = mul i64 %r11, i64 31
  %r13 = add i64 %r12, i64 %zc
  %r14 = mul i64 %r13, i64 31
  %r15 = add i64 %r14, i64 %t
  %r16 = mul i64 %r15, i64 31
  %r17 = add i64 %r16, i64 %fi
  %hp = ptrtoint ptr %h to i64
  %r18 = mul i64 %r17, i64 31
  %r19 = add i64 %r18, i64 %hp
  ret i64 %r19
}
)";

/// EveryOpcodeIR's result: gap 17, ud 6, ur 2, sd -20, sr -2, sel 4, z 1,
/// zc 1, t 132, fi -4861111164 (-46/9 narrowed to float, + 0.25f, x 1e9),
/// hp 0x4000000 (MemoryMap::HeapBase).
constexpr uint64_t EveryOpcodeResult = 14093321854682491;

} // namespace

TEST(JitFuelSegmentTest, HardenedCallKernelEveryBudget) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> Plain = parse(CallKernelIR);
  expectFuelParity(*Plain);
  std::unique_ptr<Module> Hard = parse(CallKernelIR, /*Hardened=*/true);
  for (const char *Scheme : {"pseudo", "aes1", "aes10", "chain"}) {
    SCOPED_TRACE(Scheme);
    expectFuelParity(*Hard, Scheme);
  }
}

TEST(JitFuelSegmentTest, NativeCallsLeafKernelEveryBudget) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(CallKernelIR);
  expectFuelParity(*M);
  // main entered from C++, its 40 leaf calls native-to-native.
  EXPECT_EQ(callPaths(*M), std::make_pair(uint64_t{41}, uint64_t{0}));
}

TEST(JitFuelSegmentTest, NativeCallsMutualRecursionEveryBudget) {
  SKIP_WITHOUT_JIT();
  Module M("mutual");
  buildMutualRecursion(M);
  ASSERT_TRUE(verifyModule(M));
  expectFuelParity(M);
  // main, then 25 + 18 frames of the pair, nested natively.
  EXPECT_EQ(callPaths(M), std::make_pair(uint64_t{44}, uint64_t{0}));
}

TEST(JitFuelSegmentTest, NativeCalleeTrapsMidSegmentEveryBudget) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(TrappingCalleeIR);
  expectFuelParity(*M);
  ExecResult R = runAt(*M, true, 100000, false);
  EXPECT_EQ(R.Trap, TrapKind::DivisionByZero);
  EXPECT_EQ(R.Message, "division by zero in f");
  EXPECT_EQ(callPaths(*M), std::make_pair(uint64_t{7}, uint64_t{0}));
}

TEST(JitFuelSegmentTest, TrappingLoadMidSegment) {
  // The load leaves its stencil through the out-of-line shim and traps
  // with three instructions of its segment still charged.
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(R"(
define i64 @main() {
entry:
  %s = alloca i64, align 8
  store i64 5, ptr %s
  %v = load i64, ptr %s
  %bad = inttoptr i64 %v to ptr
  %x = load i64, ptr %bad
  %y = add i64 %x, i64 1
  %z = mul i64 %y, i64 3
  ret i64 %z
}
)");
  expectFuelParity(*M);
  EXPECT_EQ(runAt(*M, true, 1000, false).Trap, TrapKind::UnmappedAccess);
}

TEST(JitFuelSegmentTest, DivisionByZeroMidSegment) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(R"(
define i64 @main() {
entry:
  %s = alloca i64, align 8
  store i64 0, ptr %s
  %d = load i64, ptr %s
  %a = add i64 %d, i64 7
  %q = udiv i64 %a, i64 %d
  %r = add i64 %q, i64 1
  %t = xor i64 %r, i64 5
  ret i64 %t
}
)");
  expectFuelParity(*M);
  EXPECT_EQ(runAt(*M, true, 1000, false).Trap, TrapKind::DivisionByZero);
}

TEST(JitFuelSegmentTest, HeapLoadThroughShimSucceeds) {
  // Heap accesses miss both inline fast paths (stack, rodata) and finish in
  // the shim without trapping: the segment's charge must stand as is.
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(R"(
declare ptr @malloc(i64)

define i64 @main() {
entry:
  %h = call ptr @malloc(i64 16)
  store i64 41, ptr %h
  %v = load i64, ptr %h
  %w = add i64 %v, i64 1
  %x = mul i64 %w, i64 2
  ret i64 %x
}
)");
  expectFuelParity(*M);
  ExecResult R = runAt(*M, true, 1000, false);
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 84u);
}

TEST(JitFuelSegmentTest, StraightLinePastTheSegmentCap) {
  SKIP_WITHOUT_JIT();
  Module M("long");
  buildStraightLine(M, 2 * JitMaxSegment + 100);
  expectFuelParity(M);
}

TEST(JitFuelSegmentTest, LoneBrBlocks) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(R"(
define i64 @main() {
entry:
  %s = alloca i64, align 8
  store i64 3, ptr %s
  br label %hop
hop:
  br label %hop2
hop2:
  br label %done
done:
  %v = load i64, ptr %s
  ret i64 %v
}
)");
  expectFuelParity(*M);
}

TEST(JitFuelSegmentTest, LoopBackEdgeLandsOnSegmentHead) {
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(R"(
define i64 @main() {
entry:
  %i = alloca i64, align 8
  %sum = alloca i64, align 8
  store i64 0, ptr %i
  store i64 0, ptr %sum
  br label %loop
loop:
  %iv = load i64, ptr %i
  %s0 = load i64, ptr %sum
  %s1 = add i64 %s0, i64 %iv
  store i64 %s1, ptr %sum
  %next = add i64 %iv, i64 1
  store i64 %next, ptr %i
  %more = icmp ult i64 %next, i64 150
  br i8 %more, label %loop, label %done
done:
  %r = load i64, ptr %sum
  ret i64 %r
}
)");
  expectFuelParity(*M);
}

TEST(JitFuelSegmentTest, SegmentationRules) {
  // Segments start at 0, at branch targets, after terminators, calls of
  // defined functions and unreachable, and every JitMaxSegment
  // instructions; a builtin call (smokestack.rand) runs no instructions
  // and stays inside its segment. Result parity alone cannot see these
  // boundaries — a longer segment only takes the slow path more often —
  // so they are pinned directly.
  std::unique_ptr<Module> M = parse(R"(
declare i64 @smokestack.rand()

define i64 @id(i64 %x) {
entry:
  ret i64 %x
}

define i64 @main() {
entry:
  %s = alloca i64, align 8
  %r = call i64 @smokestack.rand()
  %q = call i64 @id(i64 %r)
  store i64 %q, ptr %s
  br label %hop
hop:
  br label %done
done:
  %v = load i64, ptr %s
  ret i64 %v
}
)");
  DecodedProgram P(*M);
  const DecodedFunction *DF = P.find(M->getFunction("main"));
  ASSERT_NE(DF, nullptr);
  // alloca, rand, call @id | store, br | br | load, ret
  EXPECT_EQ(fuelSegmentEnds(*DF),
            (std::vector<uint32_t>{3, 3, 3, 5, 5, 6, 8, 8}));

  Module Long("long");
  buildStraightLine(Long, 2 * JitMaxSegment + 100);
  DecodedProgram LP(Long);
  const DecodedFunction *LDF = LP.find(Long.getFunction("main"));
  ASSERT_NE(LDF, nullptr);
  const uint32_t Size = static_cast<uint32_t>(LDF->Insts.size());
  std::vector<uint32_t> Ends = fuelSegmentEnds(*LDF);
  EXPECT_EQ(Ends.front(), JitMaxSegment);
  EXPECT_EQ(Ends[JitMaxSegment], 2 * JitMaxSegment);
  EXPECT_EQ(Ends[2 * JitMaxSegment], Size);
  EXPECT_EQ(Ends.back(), Size);
}

TEST(JitFuelSegmentTest, FastPathExactlyAtTheBoundary) {
  // One segment of N instructions: (FuelLeft & JitCancelMask) == N still
  // runs natively; one unit less takes the slow path, which with the
  // cancel flag set is where the last instruction hits the poll point.
  SKIP_WITHOUT_JIT();
  Module M("seg");
  buildStraightLine(M, 20);
  const uint64_t N = 24; // alloca, store, load, 20 adds, ret
  const uint64_t Base = JitCancelMask + 1;

  uint64_t Before = slowSegments();
  ExecResult AtN = runAt(M, true, Base + N, true);
  EXPECT_EQ(slowSegments() - Before, 0u);
  EXPECT_TRUE(AtN.ok()) << AtN.Message;
  EXPECT_EQ(AtN.Steps, N);

  Before = slowSegments();
  ExecResult Below = runAt(M, true, Base + N - 1, true);
  EXPECT_EQ(slowSegments() - Before, 1u);
  EXPECT_EQ(Below.Trap, TrapKind::WorkerCrash);
  EXPECT_EQ(Below.Steps, N - 1);
}

TEST(JitFuelSegmentTest, PollPointWithTheFlagClearRunsNatively) {
  // FastPathExactlyAtTheBoundary's segment one unit below the inline
  // test's bound: it crosses a poll point, but with the flag clear the
  // head's out-of-line test still charges it at once. Steps is Fuel -
  // FuelLeft, so equal Steps means equal FuelLeft.
  SKIP_WITHOUT_JIT();
  Module M("seg");
  buildStraightLine(M, 20);
  const uint64_t N = 24;
  const uint64_t Fuel = JitCancelMask + N;

  uint64_t Before = slowSegments();
  ExecResult J = runAt(M, true, Fuel, false);
  EXPECT_EQ(slowSegments() - Before, 0u);
  ExecResult D = runAt(M, false, Fuel, false);
  ASSERT_TRUE(J.ok()) << J.Message;
  EXPECT_EQ(J.Steps, N);
  EXPECT_EQ(J.Steps, D.Steps);
  EXPECT_EQ(J.ReturnValue, D.ReturnValue);
}

TEST(JitFuelSegmentTest, ShortFuelTakesThePerInstructionPath) {
  // FuelLeft < N with the flag clear: the out-of-line test declines, and
  // the per-instruction path traps on the decoded engine's instruction.
  SKIP_WITHOUT_JIT();
  Module M("seg");
  buildStraightLine(M, 20);
  const uint64_t N = 24;

  uint64_t Before = slowSegments();
  ExecResult J = runAt(M, true, N - 1, false);
  EXPECT_EQ(slowSegments() - Before, 1u);
  ExecResult D = runAt(M, false, N - 1, false);
  EXPECT_EQ(J.Trap, TrapKind::OutOfFuel);
  EXPECT_EQ(J.Trap, D.Trap);
  EXPECT_EQ(J.Steps, N - 1);
  EXPECT_EQ(J.Steps, D.Steps);
  EXPECT_EQ(J.Message, D.Message);
}

TEST(JitFuelSegmentTest, EveryOpcodeEveryBudget) {
  // Through the slow paths, the shared fuel charge and Interpreter::
  // execInst run every case of the decoded engine's switch.
  SKIP_WITHOUT_JIT();
  std::unique_ptr<Module> M = parse(EveryOpcodeIR);
  DecodedProgram P(*M);
  const DecodedFunction *DF = P.find(M->getFunction("main"));
  ASSERT_NE(DF, nullptr);
  std::set<DecodedOp> Seen;
  for (const DecodedInst &DI : DF->Insts)
    Seen.insert(DI.Op);
  for (unsigned Op = 0; Op <= static_cast<unsigned>(DecodedOp::Unreachable);
       ++Op) {
    DecodedOp D = static_cast<DecodedOp>(Op);
    bool Control = D == DecodedOp::Br || D == DecodedOp::CondBr ||
                   D == DecodedOp::Ret || D == DecodedOp::RetVoid ||
                   D == DecodedOp::Unreachable;
    if (!Control)
      EXPECT_EQ(Seen.count(D), 1u) << "opcode " << Op;
  }

  expectFuelParity(*M);
  for (bool Jit : {false, true}) {
    ExecResult R = runAt(*M, Jit, InterpreterOptions().Fuel, false);
    ASSERT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ReturnValue, EveryOpcodeResult) << (Jit ? "jit" : "decoded");
  }
}
