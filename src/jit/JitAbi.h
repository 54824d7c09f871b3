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
/// Interpreter::callDecoded invocation: the C++ wrapper still performs the
/// depth check, register-file setup (constant-pool copy, argument
/// masking), the LayoutObserver entry callback, and the stack-pointer
/// restore, so JIT entry and interpreter entry are literally the same code
/// up to the first instruction. Inside, the emitted code keeps the decoded
/// engine's books bit for bit: fuel is decremented once per instruction
/// *before* it executes, the cancel flag is polled on the same
/// (FuelLeft & JitCancelMask) == 0 schedule, and every trap is raised at
/// the same instruction boundary with the same TrapKind and message
/// (messages are built by the shims, which share the interpreter's code).
///
/// Loads that miss the stack segment retry inline against the read-only
/// data segment (JitContext::RODataHost) before taking the shim, and —
/// while no LayoutObserver is bound — static allocas and observed geps
/// run inline too, so a Smokestack prologue leaves native code only for
/// its smokestack.rand call. Calls reach their callee through
/// Interpreter::callSite, which uses the call site's cached CalleeDF.
///
/// Register conventions inside compiled code (System V x86-64; all six
/// callee-saved registers are pinned for the function's whole body, so
/// shim calls need no save/restore):
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
struct DecodedFunction;
struct ExecResult;

/// Per-invocation state handed to a compiled function. Rebuilt on every
/// call (it is a handful of loads), so compiled code embeds no pointers
/// into any particular Interpreter and a code cache entry stays valid
/// across snapshot restores and pool worker rebuilds.
struct JitContext {
  Interpreter *Interp = nullptr;
  const DecodedFunction *DF = nullptr;
  ExecResult *Result = nullptr;
  uint64_t Depth = 0;
  /// Out-parameter: the Mini-IR return value when the function exits
  /// through Ret (RetVoid leaves it 0).
  uint64_t RetValue = 0;
  uint64_t *FuelLeft = nullptr;
  uint8_t *StackHost = nullptr;
  uint64_t *StackTouchedLo = nullptr;
  uint64_t *StackTouchedHi = nullptr;
  /// Read-only data segment bytes (SimMemory::jitRODataHost): a load that
  /// misses the stack fast path retries against [RODataBase, RODataBase +
  /// RODataSize) inline before taking the interpreter shim, which keeps
  /// the hardened prologue's P-BOX loads in native code.
  const uint8_t *RODataHost = nullptr;
  /// &Interpreter::StackPointer and &Interpreter::StackLowWater, which the
  /// inline static-alloca stencil bumps exactly like materializeAlloca.
  uint64_t *StackPointer = nullptr;
  uint64_t *StackLowWater = nullptr;
  /// Nonzero when a LayoutObserver is bound: allocas and observed geps then
  /// take the shim, which makes the observer callbacks.
  uint64_t Observed = 0;
};

/// Entry point of a compiled function: (context, register file) -> status.
/// Status 0 = returned, 1 = trapped.
using JitFn = uint64_t (*)(JitContext *, uint64_t *);

/// The emitted cancel-poll schedule; must equal the interpreter's private
/// CancelCheckMask (asserted in JitRuntime.cpp, which can see it).
inline constexpr uint64_t JitCancelMask = 1023;

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

/// Executes DF->Insts[IP] with the interpreter's semantics — the shared
/// slow path behind every opcode the stencils do not inline (VLAs, calls,
/// division, floating point, unreachable), every failing check of an
/// inlined stencil (out-of-segment loads/stores, alloca overflow), and
/// allocas/observed geps while a LayoutObserver is bound. Fuel for the instruction
/// was already decremented by emitted code. Returns 0 to continue at the
/// next instruction, 1 on trap (ExecResult filled in).
uint64_t ssJitInterpOne(smokestack::JitContext *Ctx, uint64_t *Regs,
                        uint64_t IP);

/// The cancel-flag poll: returns 1 (and fills the WorkerCrash trap) when
/// the cooperative cancel flag is set, else 0.
uint64_t ssJitPollCancel(smokestack::JitContext *Ctx);

/// Fills the OutOfFuel trap; the emitted code then exits with status 1.
void ssJitOutOfFuel(smokestack::JitContext *Ctx);

} // extern "C"

#endif // SMOKESTACK_JIT_JITABI_H
