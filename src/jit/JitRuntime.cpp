//===- jit/JitRuntime.cpp - Shims called by compiled code -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The generic slow path behind every stencil the compiler does not inline:
// ssJitInterpOne calls Interpreter::execInst, the out-of-line form of the
// one function that executes a decoded instruction for the decoded
// dispatch loop too (Interpreter::execInlined). Compiled code and the
// decoded engine thus run the same statements for anything subtle (RNG
// draw order inside builtins, trap messages, signed division edge
// cases): "bit-identical to the decoded engine" is a
// structural property, not a test wish. ssJitInterpSegment, the segment
// head's slow path when ssJitTryCharge declines (fuel short or a cancel
// pending), charges fuel with the loop's own Interpreter::chargeFuel
// before each instruction.
//
// Control flow (Br/CondBr/Ret/RetVoid) is always inlined by the compiler
// and never arrives here. ssJitDraw is the healthy draw of
// smokestack.rand call sites and ssJitRand their full draw;
// ssJitInterpRange is the fallback of a P-BOX row whose bounds check
// failed; direct calls of compiled callees never come here (see
// JitAbi.h).
//
//===----------------------------------------------------------------------===//

#include "jit/JitAbi.h"
#include "rng/Resilient.h"
#include "support/Statistics.h"
#include "vm/DecodedFunction.h"
#include "vm/Interpreter.h"
#include "vm/SlotBits.h"

#include <cstdint>

static smokestack::Statistic
    NumSlowSegments("jit.slow-segments",
                    "Fuel segments run per instruction (fuel short or "
                    "a cancel pending)");
static smokestack::Statistic
    NumShimCalls("jit.shim-calls",
                 "Calls from compiled code through the interpreter shim "
                 "(builtins, and native calls that fell back)");

namespace smokestack {

/// Friend-of-Interpreter implementation of the C shims. Each returns 0 to
/// continue, 1 on trap.
struct JitShims {
  // The segment heads' fast-path test must match the interpreter's poll
  // schedule; the constant is private, so the check lives here with
  // friend access.
  static_assert(Interpreter::CancelCheckMask == JitCancelMask,
                "JitAbi.h's JitCancelMask is out of sync with the "
                "interpreter's poll schedule");

  static uint64_t interpOne(JitContext *Ctx, uint64_t *Regs, uint64_t IP);
  static uint64_t tryCharge(JitContext *Ctx, uint64_t N);
  static uint64_t interpSegment(JitContext *Ctx, uint64_t *Regs,
                                uint64_t Start, uint64_t N);
  static uint64_t rand(JitContext *Ctx, uint64_t *Regs, uint64_t IP);
  static uint64_t interpRange(JitContext *Ctx, uint64_t *Regs,
                              uint64_t Start, uint64_t End);
};

uint64_t JitShims::interpOne(JitContext *Ctx, uint64_t *Regs, uint64_t IP) {
  const DecodedFunction &DF = *Ctx->DF;
  const DecodedInst &DI = DF.Insts[IP];
  // jit.shim-calls counts builtins and native calls that fell back (no
  // code for the callee yet, the depth limit), not a smokestack.rand site
  // run by a segment's slow path (a builtin call does not end its
  // segment).
  if (DI.Op == DecodedOp::Call &&
      DF.CallSites[DI.A].Builtin != BuiltinId::Rand)
    ++NumShimCalls;
  return !Ctx->Interp->execInst(DF, IP, Regs,
                                static_cast<unsigned>(Ctx->Depth),
                                *Ctx->Result);
}

uint64_t JitShims::tryCharge(JitContext *Ctx, uint64_t N) {
  Interpreter &I = *Ctx->Interp;
  if (I.FuelLeft < N ||
      (I.CancelFlag && I.CancelFlag->load(std::memory_order_relaxed)))
    return 0;
  I.FuelLeft -= N;
  return 1;
}

uint64_t JitShims::interpSegment(JitContext *Ctx, uint64_t *Regs,
                                 uint64_t Start, uint64_t N) {
  // The decoded loop's per-instruction order: charge, then execute. The
  // segment's last instruction is only charged; the native code resumes
  // at its body.
  ++NumSlowSegments;
  for (uint64_t IP = Start, End = Start + N; IP != End; ++IP) {
    if (!Ctx->Interp->chargeFuel(*Ctx->DF->F, *Ctx->Result))
      return 1;
    if (IP + 1 != End && interpOne(Ctx, Regs, IP))
      return 1;
  }
  return 0;
}

uint64_t JitShims::rand(JitContext *Ctx, uint64_t *Regs, uint64_t IP) {
  // callSite minus the argument gather: smokestack.rand reads none.
  const DecodedInst &DI = Ctx->DF->Insts[IP];
  uint64_t RetValue = 0;
  if (!Ctx->Interp->builtinRand(RetValue, *Ctx->Result))
    return 1;
  if (DI.Dest != DecodedInst::NoReg)
    Regs[DI.Dest] = DI.Width ? maskToWidth(RetValue, DI.Width) : RetValue;
  return 0;
}

uint64_t JitShims::interpRange(JitContext *Ctx, uint64_t *Regs,
                               uint64_t Start, uint64_t End) {
  for (uint64_t IP = Start; IP != End; ++IP)
    if (interpOne(Ctx, Regs, IP)) {
      Ctx->Interp->FuelLeft += End - IP;
      return 1;
    }
  return 0;
}

} // namespace smokestack

using namespace smokestack;

extern "C" uint64_t ssJitInterpOne(JitContext *Ctx, uint64_t *Regs,
                                   uint64_t IP) {
  return JitShims::interpOne(Ctx, Regs, IP);
}

extern "C" uint64_t ssJitTryCharge(JitContext *Ctx, uint64_t N) {
  return JitShims::tryCharge(Ctx, N);
}

extern "C" uint64_t ssJitInterpSegment(JitContext *Ctx, uint64_t *Regs,
                                       uint64_t Start, uint64_t N) {
  return JitShims::interpSegment(Ctx, Regs, Start, N);
}

extern "C" uint64_t ssJitRand(JitContext *Ctx, uint64_t *Regs, uint64_t IP) {
  return JitShims::rand(Ctx, Regs, IP);
}

extern "C" JitDraw ssJitDraw(ResilientRandomSource *Chain) {
  JitDraw D{0, 0};
  D.Ok = Chain->tryHealthyDraw(D.Value);
  return D;
}

extern "C" uint64_t ssJitInterpRange(JitContext *Ctx, uint64_t *Regs,
                                     uint64_t Start, uint64_t End) {
  return JitShims::interpRange(Ctx, Regs, Start, End);
}
