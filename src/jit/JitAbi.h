//===- jit/JitAbi.h - Compiled-code calling contract -----------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ABI between JIT-compiled Mini-IR functions, the stencil compiler
/// that emits them (JitCompiler.cpp), and the C++ runtime shims they call
/// back into (JitRuntime.cpp).
///
/// A compiled function covers exactly the dispatch loop of one
/// Interpreter::callDecoded invocation: entered from C++, the wrapper still
/// performs the depth check, register-file setup (constant-pool copy,
/// argument masking), the LayoutObserver entry callback, and the
/// stack-pointer restore, so JIT entry and interpreter entry are literally
/// the same code up to the first instruction (a native call repeats that
/// sequence inline; see below). Inside, the emitted code keeps the decoded
/// engine's books bit for bit — ExecResult::Steps, FuelLeft, and the
/// instruction, TrapKind and message of every trap (messages are built by
/// the shims, which share the interpreter's code) — while charging fuel
/// once per *fuel segment* instead of once per instruction.
///
/// Fuel segments. A segment is a maximal run of decoded instructions that
/// no branch enters mid-way: it ends after a terminator, a call of a
/// defined function (not a builtin, which runs no instructions) or an
/// Unreachable, and after JitMaxSegment instructions. Its head tests the
/// fuel cell once:
///
///   if ((FuelLeft & JitCancelMask) >= N)   // N = segment length
///     FuelLeft -= N, then run the N instruction bodies natively;
///   else
///     ssJitInterpSegment(Ctx, Regs, Start, N), then resume at the body
///     of the segment's last instruction.
///
/// Why the fast path is exact: the decoded loop, at the k-th instruction
/// of the segment (k < N), traps when FuelLeft - k == 0 and polls the
/// cancel flag when (FuelLeft - k) & JitCancelMask == 0. With r =
/// FuelLeft & JitCancelMask >= N, the low bits of FuelLeft - k are r - k
/// >= 1 (no borrow), so neither event can happen inside the segment and
/// one subtraction of N leaves FuelLeft where the loop would. Three rules
/// keep every observer of FuelLeft exact:
///
///  * Nothing inside a segment reads FuelLeft except a call of a defined
///    function, and such a call ends its segment, so a callee always
///    starts from exact fuel.
///  * A trap at the k-th instruction of a fast-path segment first refunds
///    the N - k - 1 units charged for instructions that never ran, so
///    FuelLeft (and Steps) at the trap equal the decoded engine's.
///  * The slow path is the decoded loop itself: per instruction,
///    Interpreter::chargeFuel (the fuel==0 trap, the cancel poll, the
///    decrement), then execution through ssJitInterpOne. It charges the
///    last instruction but leaves running it to the native body, so both
///    paths share one copy of a terminator's code.
///
/// With a mask of 1023 and segments of at most 256 instructions, the slow
/// path runs for about N/1024 of the segments a run enters.
///
/// The hardened prologue runs native end to end. While no LayoutObserver
/// is bound, static allocas and observed geps run inline; the rest is
/// the draw and the P-BOX loads:
///
///  * The draw. A smokestack.rand call site calls ssJitDraw, which is
///    ResilientRandomSource::tryHealthyDraw on the chain bound to the
///    interpreter (JitContext::Chain): one step of the simulated DRNG's
///    stream plus the chain's books, no virtual call. That healthy path
///    applies only while the primary is the active source, no fault
///    injector is installed and the batch size is 1; it then has exactly
///    the effect of Interpreter::builtinRand (value, DrawStatus, every
///    RequestRng::Books field and statistic). Anything else — no chain
///    bound, a failover, an injector, a batch — makes ssJitDraw return
///    without side effects, and the site takes ssJitRand, which draws
///    through builtinRand and fails closed exactly as it does.
///  * P-BOX rows. A row is the loads of one fuel segment whose addresses
///    are geps, earlier in the segment, off one constant base that lies
///    in the read-only data segment with one index register and scale
///    (the prologue's `gep @__ss_pbox, %ss.rowoff, 1, col`), while the
///    index is not redefined between the row's first gep and last load.
///    The row's first load checks once that every address of the row lies
///    inside [RODataBase, RODataBase + RODataSize) and then each load reads
///    JitContext::RODataHost directly. When the check fails — only a
///    module whose row offset runs off the segment — ssJitInterpRange
///    runs the rest of the segment through the interpreter, which traps
///    where the decoded engine does. A segment's last instruction is never
///    in a row (the head's slow path resumes native code there).
///
/// Other loads try the stack segment inline, then the read-only segment
/// out of line, then the shim.
///
/// Native calls. A direct call of a defined function enters the callee's
/// compiled code without leaving native code. The call site repeats
/// callDecoded's entry sequence inline: it bumps Interpreter::CallCount
/// and the jit.native-calls count, writes the callee's register file one
/// frame above its own (JitContext::FrameBytes: masked arguments from its
/// registers, zeroes for the slots DecodedFunction::ReadFirstSlots lists,
/// the callee's constants), saves the stack pointer, points
/// JitContext::DF and Depth at the callee, and calls the callee's native
/// entry with the same context (see the register conventions below); on
/// return it restores the stack pointer, DF and Depth, and propagates a
/// trap. The callee's entry address is read
/// from a data cell that the JitCache fills when it compiles the callee
/// (JitCache::entryCell), so a callee compiled after its caller is picked
/// up without writing sealed code. The call takes ssJitInterpOne instead,
/// through Interpreter::callSite and callDecoded, with identical books,
/// when:
///
///  * the callee has no installed code yet (its invocations still count
///    toward its tier-up) or failed to compile;
///  * a LayoutObserver is bound (callDecoded reports onFunctionEnter);
///  * the callee would run deeper than MaxCallDepth (callDecoded traps);
///  * the callee is a builtin other than smokestack.rand.
///
/// jit.shim-calls counts the calls that took the shim.
///
/// The callee's file sits on the interpreter's flat register stack, where
/// an earlier frame at the same depth left its values. Zeroing only the
/// slots that some path reads before writing (a sound decode-time
/// analysis; see DecodedFunction::ReadFirstSlots) is enough to keep those
/// stale values unobservable: every other slot is written by its defining
/// instruction before any read, so a module whose use is not dominated by
/// its def still reads 0, as under the decoded engine.
///
/// Register conventions inside compiled code (System V x86-64; all six
/// callee-saved registers are pinned for the function's whole body, so
/// shim calls and native calls need no save/restore; the stack slot the
/// native entry reserves for alignment holds a native call's saved stack
/// pointer). Every compiled function starts with the same C entry (the
/// JitFn), which saves and pins them and calls the native entry that
/// follows it; a native call site enters a compiled callee at its native
/// entry (at the same offset in every function) with the registers still
/// pinned, moving rbx to the callee's register file for the call:
///
///   rbx  register file base (uint64_t *Regs)
///   r13  JitContext *
///   r14  &Interpreter::FuelLeft   (shared with recursive callees)
///   r15  stack-segment host base  (inline load/store fast path)
///   r12  &stack ByteArena::TouchedLo
///   rbp  &stack ByteArena::TouchedHi
///
/// A compiled function returns 0 when the Mini-IR function returned
/// normally (result in JitContext::RetValue) and 1 when it trapped
/// (ExecResult already filled in by a shim).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_JIT_JITABI_H
#define SMOKESTACK_JIT_JITABI_H

#include <cstdint>

namespace smokestack {

class Interpreter;
class ResilientRandomSource;
struct DecodedFunction;
struct ExecResult;

/// State handed to a compiled function by Interpreter::callDecoded. Built
/// on every entry from C++ (it is a handful of loads), so compiled code
/// reads every piece of Interpreter state through it and a code cache
/// entry stays valid across resets to the load state and pool worker
/// rebuilds.
/// The code is bound to the JitCache that compiled it: its call sites
/// embed that cache's entry cells and native-call counter.
/// The native frames a compiled function calls directly share it: DF and
/// Depth always describe the innermost native frame, because a native
/// call sets them for its callee and puts them back when it returns.
struct JitContext {
  Interpreter *Interp = nullptr;
  const DecodedFunction *DF = nullptr;
  ExecResult *Result = nullptr;
  uint64_t Depth = 0;
  /// InterpreterOptions::MaxCallDepth: a native call needs Depth < MaxDepth.
  uint64_t MaxDepth = 0;
  /// &Interpreter::CallCount, bumped by every native call.
  uint64_t *CallCount = nullptr;
  /// Bytes between the register files of consecutive depths: a callee's
  /// file is the caller's plus FrameBytes.
  uint64_t FrameBytes = 0;
  /// Out-parameter: the Mini-IR return value when the function exits
  /// through Ret (RetVoid leaves it 0).
  uint64_t RetValue = 0;
  uint64_t *FuelLeft = nullptr;
  uint8_t *StackHost = nullptr;
  uint64_t *StackTouchedLo = nullptr;
  uint64_t *StackTouchedHi = nullptr;
  /// Read-only data segment bytes (SimMemory::jitRODataHost): P-BOX row
  /// loads read it directly, and any other load that misses the stack
  /// fast path retries against [RODataBase, RODataBase + RODataSize)
  /// before taking the interpreter shim.
  const uint8_t *RODataHost = nullptr;
  /// &Interpreter::StackPointer and &Interpreter::StackLowWater, which the
  /// inline static-alloca stencil bumps exactly like materializeAlloca.
  uint64_t *StackPointer = nullptr;
  uint64_t *StackLowWater = nullptr;
  /// Nonzero when a LayoutObserver is bound: allocas and observed geps then
  /// take the shim, which makes the observer callbacks.
  uint64_t Observed = 0;
  /// The interpreter's RandomSource when it is a fallback chain, else
  /// null: smokestack.rand call sites try its healthy draw (ssJitDraw)
  /// before ssJitRand.
  ResilientRandomSource *Chain = nullptr;
};

/// ssJitDraw's result, returned in rax:rdx: the value and whether the
/// healthy draw applied (Ok = 0: nothing happened, take ssJitRand).
struct JitDraw {
  uint64_t Value;
  uint64_t Ok;
};

/// Entry point of a compiled function: (context, register file) -> status.
/// Status 0 = returned, 1 = trapped.
using JitFn = uint64_t (*)(JitContext *, uint64_t *);

/// The interpreter's cancel-poll schedule, which every segment head tests
/// against; must equal the interpreter's private CancelCheckMask
/// (asserted in JitRuntime.cpp, which can see it).
inline constexpr uint64_t JitCancelMask = 1023;

/// Longest fuel segment. Must not exceed JitCancelMask, or a segment head
/// could never take its fast path; a smaller cap bounds what one slow path
/// interprets, at the cost of more heads.
inline constexpr uint32_t JitMaxSegment = 256;
static_assert(JitMaxSegment <= JitCancelMask);

/// True when this build can emit and execute native code (x86-64 with
/// POSIX mprotect semantics). Everything else falls back to the decoded
/// engine; callers are expected to warn and downgrade, never fail.
bool jitAvailable();

} // namespace smokestack

//===----------------------------------------------------------------------===//
// Runtime shims (JitRuntime.cpp). C ABI so the compiler can embed their
// addresses as call targets without name-mangling games.
//===----------------------------------------------------------------------===//

extern "C" {

/// Executes DF->Insts[IP] by calling Interpreter::execInst, the decoded
/// engine's own per-instruction code — the shared slow path behind every
/// opcode the stencils do not inline (VLAs, calls, division, floating
/// point, unreachable), every failing check of an inlined stencil
/// (out-of-segment loads/stores, alloca overflow), and allocas/observed
/// geps while a LayoutObserver is bound. Fuel for the instruction was
/// already charged. Returns 0 to continue at the next instruction, 1 on
/// trap (ExecResult filled in).
uint64_t ssJitInterpOne(smokestack::JitContext *Ctx, uint64_t *Regs,
                        uint64_t IP);

/// The slow path of a segment head: runs DF->Insts[Start, Start + N - 1)
/// with the decoded loop's per-instruction fuel order (OutOfFuel trap,
/// cancel poll, decrement, execute) and charges the last instruction
/// without running it. Returns 0 when the native code should continue at
/// the last instruction's body, 1 on trap.
uint64_t ssJitInterpSegment(smokestack::JitContext *Ctx, uint64_t *Regs,
                            uint64_t Start, uint64_t N);

/// Executes DF->Insts[IP], a call site of smokestack.rand, through the
/// interpreter's own draw (Interpreter::builtinRand). Same contract as
/// ssJitInterpOne.
uint64_t ssJitRand(smokestack::JitContext *Ctx, uint64_t *Regs, uint64_t IP);

/// The healthy draw of \p Chain (ResilientRandomSource::tryHealthyDraw):
/// {value, 1}, or {0, 0} with nothing changed when it does not apply.
smokestack::JitDraw ssJitDraw(smokestack::ResilientRandomSource *Chain);

/// Runs DF->Insts[Start, End) through ssJitInterpOne, fuel already charged
/// (the fallback of a P-BOX row whose bounds check failed; End is the
/// segment's last instruction, where native code resumes). A trap at IP
/// first refunds the End - IP charged instructions that never ran.
/// Returns 0 to continue at End's body, 1 on trap.
uint64_t ssJitInterpRange(smokestack::JitContext *Ctx, uint64_t *Regs,
                          uint64_t Start, uint64_t End);

} // extern "C"

#endif // SMOKESTACK_JIT_JITABI_H
