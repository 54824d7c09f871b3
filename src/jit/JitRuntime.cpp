//===- jit/JitRuntime.cpp - Shims called by compiled code -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The generic slow path behind every stencil the compiler does not inline:
// ssJitInterpOne executes exactly one DecodedInst with the interpreter's
// own semantics — the case bodies below are the decoded dispatch loop of
// Interpreter::callDecoded, case for case, sharing its helpers
// (materializeAlloca, callSite, SimMemory, vm/SlotBits.h) through
// the JitShims friendship. That construction is what makes "bit-identical
// to the decoded engine" a structural property instead of a test wish:
// anything subtle (RNG draw order inside builtins, trap messages, signed
// division edge cases, observer callbacks) runs the same statements either
// way.
//
// Control flow (Br/CondBr/Ret/RetVoid) is always inlined by the compiler
// and must never arrive here. Fuel for the instruction was already charged,
// either by its fuel segment's head or by ssJitInterpSegment (the head's
// slow path, which runs a segment with the decoded loop's per-instruction
// fuel order). ssJitDraw is the healthy draw of smokestack.rand call
// sites and ssJitRand their full draw; ssJitInterpRange is the fallback of
// a P-BOX row whose bounds check failed; direct calls of compiled callees
// never come here (see JitAbi.h).
//
//===----------------------------------------------------------------------===//

#include "ir/Instructions.h"
#include "jit/JitAbi.h"
#include "rng/Resilient.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/Statistics.h"
#include "vm/DecodedFunction.h"
#include "vm/Interpreter.h"
#include "vm/SlotBits.h"

#include <cstdint>

static smokestack::Statistic
    NumSlowSegments("jit.slow-segments",
                    "Fuel segments run through the per-instruction path");
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
  static uint64_t interpSegment(JitContext *Ctx, uint64_t *Regs,
                                uint64_t Start, uint64_t N);
  static uint64_t rand(JitContext *Ctx, uint64_t *Regs, uint64_t IP);
  static uint64_t interpRange(JitContext *Ctx, uint64_t *Regs,
                              uint64_t Start, uint64_t End);
};

uint64_t JitShims::interpOne(JitContext *Ctx, uint64_t *Regs, uint64_t IP) {
  Interpreter &I = *Ctx->Interp;
  const DecodedFunction &DF = *Ctx->DF;
  ExecResult &Result = *Ctx->Result;
  Function *F = DF.F;
  const DecodedInst &DI = DF.Insts[IP];

  switch (DI.Op) {
  case DecodedOp::AllocaStatic:
  case DecodedOp::AllocaVLA: {
    uint64_t Count = DI.Op == DecodedOp::AllocaVLA ? Regs[DI.A] : 1;
    uint64_t Addr =
        I.materializeAlloca(*F, *cast<AllocaInst>(DI.Src), Count, Result);
    if (Result.Trap != TrapKind::None)
      return 1;
    Regs[DI.Dest] = Addr;
    return 0;
  }
  case DecodedOp::Load: {
    // Tail of the inlined stack and rodata fast paths (globals, heap,
    // unmapped).
    uint64_t Bits = 0;
    if (!I.Memory.loadInt(Regs[DI.A], DI.Width, Bits)) {
      Result.Trap = I.Memory.getTrap();
      Result.Message = I.Memory.getTrapMessage();
      return 1;
    }
    Regs[DI.Dest] = Bits;
    return 0;
  }
  case DecodedOp::Store:
    if (!I.Memory.storeInt(Regs[DI.B], DI.Width, Regs[DI.A])) {
      Result.Trap = I.Memory.getTrap();
      Result.Message = I.Memory.getTrapMessage();
      return 1;
    }
    return 0;
  case DecodedOp::GepConst:
    Regs[DI.Dest] = Regs[DI.A] + static_cast<uint64_t>(DI.Imm);
    return 0;
  case DecodedOp::GepIndex:
    Regs[DI.Dest] =
        Regs[DI.A] + Regs[DI.B] * DI.C + static_cast<uint64_t>(DI.Imm);
    return 0;
  case DecodedOp::GepConstObs:
  case DecodedOp::GepIndexObs: {
    uint64_t Addr = Regs[DI.A] + static_cast<uint64_t>(DI.Imm);
    if (DI.Op == DecodedOp::GepIndexObs)
      Addr += Regs[DI.B] * DI.C;
    Regs[DI.Dest] = Addr;
    if (I.TheObserver) {
      const std::string &Name = DI.Src->getName();
      I.TheObserver->onVariableAddress(*F, Name.substr(0, Name.size() - 3),
                                       Addr);
    }
    return 0;
  }
  case DecodedOp::Add:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A] + Regs[DI.B], DI.Width);
    return 0;
  case DecodedOp::Sub:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A] - Regs[DI.B], DI.Width);
    return 0;
  case DecodedOp::Mul:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A] * Regs[DI.B], DI.Width);
    return 0;
  case DecodedOp::UDiv:
  case DecodedOp::URem: {
    uint64_t L = Regs[DI.A], R = Regs[DI.B];
    if (R == 0) {
      Result.Trap = TrapKind::DivisionByZero;
      Result.Message = "division by zero in " + F->getName();
      return 1;
    }
    Regs[DI.Dest] = DI.Op == DecodedOp::UDiv ? L / R : L % R;
    return 0;
  }
  case DecodedOp::SDiv:
  case DecodedOp::SRem: {
    int64_t SL = sextFromWidth(Regs[DI.A], DI.Width);
    int64_t SR = sextFromWidth(Regs[DI.B], DI.Width);
    if (SR == 0) {
      Result.Trap = TrapKind::DivisionByZero;
      Result.Message = "division by zero in " + F->getName();
      return 1;
    }
    uint64_t Out;
    if (SL == INT64_MIN && SR == -1)
      Out = static_cast<uint64_t>(SL); // wraps, remainder 0
    else
      Out = static_cast<uint64_t>(DI.Op == DecodedOp::SDiv ? SL / SR
                                                           : SL % SR);
    Regs[DI.Dest] = maskToWidth(Out, DI.Width);
    return 0;
  }
  case DecodedOp::And:
    Regs[DI.Dest] = Regs[DI.A] & Regs[DI.B];
    return 0;
  case DecodedOp::Or:
    Regs[DI.Dest] = Regs[DI.A] | Regs[DI.B];
    return 0;
  case DecodedOp::Xor:
    Regs[DI.Dest] = Regs[DI.A] ^ Regs[DI.B];
    return 0;
  case DecodedOp::Shl: {
    uint64_t R = Regs[DI.B];
    Regs[DI.Dest] =
        R >= DI.Width * 8u ? 0 : maskToWidth(Regs[DI.A] << R, DI.Width);
    return 0;
  }
  case DecodedOp::LShr: {
    uint64_t R = Regs[DI.B];
    Regs[DI.Dest] = R >= DI.Width * 8u ? 0 : Regs[DI.A] >> R;
    return 0;
  }
  case DecodedOp::AShr: {
    int64_t SL = sextFromWidth(Regs[DI.A], DI.Width);
    uint64_t R = Regs[DI.B];
    uint64_t Out = static_cast<uint64_t>(
        R >= DI.Width * 8u ? (SL < 0 ? -1 : 0) : SL >> R);
    Regs[DI.Dest] = maskToWidth(Out, DI.Width);
    return 0;
  }
  case DecodedOp::FAdd:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) +
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return 0;
  case DecodedOp::FSub:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) -
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return 0;
  case DecodedOp::FMul:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) *
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return 0;
  case DecodedOp::FDiv:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) /
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return 0;
  case DecodedOp::ICmpInt: {
    uint64_t L = Regs[DI.A], R = Regs[DI.B];
    int64_t SL = sextFromWidth(L, DI.Width);
    int64_t SR = sextFromWidth(R, DI.Width);
    bool Out = false;
    using Pred = ICmpInst::Predicate;
    switch (static_cast<Pred>(DI.C)) {
    case Pred::EQ:
      Out = L == R;
      break;
    case Pred::NE:
      Out = L != R;
      break;
    case Pred::ULT:
      Out = L < R;
      break;
    case Pred::ULE:
      Out = L <= R;
      break;
    case Pred::UGT:
      Out = L > R;
      break;
    case Pred::UGE:
      Out = L >= R;
      break;
    case Pred::SLT:
      Out = SL < SR;
      break;
    case Pred::SLE:
      Out = SL <= SR;
      break;
    case Pred::SGT:
      Out = SL > SR;
      break;
    case Pred::SGE:
      Out = SL >= SR;
      break;
    default:
      smokestack_unreachable("float predicate on integer operands");
    }
    Regs[DI.Dest] = Out ? 1 : 0;
    return 0;
  }
  case DecodedOp::ICmpFloat: {
    double DL = slotToFPW(Regs[DI.A], DI.Width);
    double DR = slotToFPW(Regs[DI.B], DI.Width);
    bool Out = false;
    using Pred = ICmpInst::Predicate;
    switch (static_cast<Pred>(DI.C)) {
    case Pred::OEQ:
      Out = DL == DR;
      break;
    case Pred::OLT:
      Out = DL < DR;
      break;
    case Pred::OLE:
      Out = DL <= DR;
      break;
    case Pred::OGT:
      Out = DL > DR;
      break;
    case Pred::OGE:
      Out = DL >= DR;
      break;
    default:
      smokestack_unreachable("integer predicate on float operands");
    }
    Regs[DI.Dest] = Out ? 1 : 0;
    return 0;
  }
  case DecodedOp::CastCopy:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A], DI.Width);
    return 0;
  case DecodedOp::CastSExt:
    Regs[DI.Dest] = maskToWidth(
        static_cast<uint64_t>(sextFromWidth(Regs[DI.A], DI.C)), DI.Width);
    return 0;
  case DecodedOp::CastFPToSI:
    Regs[DI.Dest] = maskToWidth(
        static_cast<uint64_t>(
            static_cast<int64_t>(slotToFPW(Regs[DI.A], DI.C))),
        DI.Width);
    return 0;
  case DecodedOp::CastSIToFP:
    Regs[DI.Dest] = fpToSlotW(
        static_cast<double>(sextFromWidth(Regs[DI.A], DI.C)), DI.Width);
    return 0;
  case DecodedOp::CastFPConvert:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.C), DI.Width);
    return 0;
  case DecodedOp::Select:
    Regs[DI.Dest] = Regs[DI.A] ? Regs[DI.B] : Regs[DI.C];
    return 0;
  case DecodedOp::Call: {
    // A segment's slow path runs a smokestack.rand site here (a builtin
    // call does not end its segment): the site's own full draw.
    if (DF.CallSites[DI.A].Builtin == BuiltinId::Rand)
      return rand(Ctx, Regs, IP);
    // The native call path's fallback (no code for the callee yet, an
    // observer bound, the depth limit) and every other builtin:
    // re-enter callDecoded, which counts a cold callee's invocations
    // toward its tier-up — tiering nests.
    ++NumShimCalls;
    uint64_t RetValue = 0;
    if (!I.callSite(DF, DF.CallSites[DI.A], Regs,
                    static_cast<unsigned>(Ctx->Depth), RetValue, Result))
      return 1;
    if (DI.Dest != DecodedInst::NoReg)
      Regs[DI.Dest] = DI.Width ? maskToWidth(RetValue, DI.Width) : RetValue;
    return 0;
  }
  case DecodedOp::Unreachable:
    Result.Trap = TrapKind::ExplicitTrap;
    Result.Message = "reached unreachable in " + F->getName();
    return 1;
  case DecodedOp::Br:
  case DecodedOp::CondBr:
  case DecodedOp::Ret:
  case DecodedOp::RetVoid:
    break; // always inlined; falls through to the unreachable below
  }
  smokestack_unreachable("control flow routed to the JIT interp shim");
}

uint64_t JitShims::interpSegment(JitContext *Ctx, uint64_t *Regs,
                                 uint64_t Start, uint64_t N) {
  // The decoded loop's per-instruction order, verbatim: trap on fuel 0,
  // poll on the cancel schedule, charge, execute. The segment's last
  // instruction is only charged; the native code resumes at its body.
  ++NumSlowSegments;
  Interpreter &I = *Ctx->Interp;
  ExecResult &Result = *Ctx->Result;
  for (uint64_t IP = Start, End = Start + N; IP != End; ++IP) {
    if (I.FuelLeft == 0) {
      Result.Trap = TrapKind::OutOfFuel;
      Result.Message =
          "instruction budget exhausted in " + Ctx->DF->F->getName();
      return 1;
    }
    if ((I.FuelLeft & Interpreter::CancelCheckMask) == 0 && I.CancelFlag &&
        I.CancelFlag->load(std::memory_order_relaxed)) {
      Result.Trap = TrapKind::WorkerCrash;
      Result.Message = "cooperative cancel in " + Ctx->DF->F->getName();
      return 1;
    }
    --I.FuelLeft;
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
