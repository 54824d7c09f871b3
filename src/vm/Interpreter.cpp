//===- vm/Interpreter.cpp - Mini-IR interpreter ----------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "rng/RandomSource.h"
#include "support/Align.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "jit/JitCache.h"
#include "vm/DecodedProgram.h"
#include "vm/Decoder.h"
#include "vm/SlotBits.h"

#include <cassert>
#include <cstring>

using namespace smokestack;

LayoutObserver::~LayoutObserver() = default;

namespace {

/// Byte width of a scalar slot of type \p Ty.
uint64_t scalarWidth(const Type *Ty) {
  assert(!Ty->isAggregate() && !Ty->isVoid() && "not a scalar type");
  return Ty->sizeInBytes();
}

// maskToWidth / sextFromWidth / slotToFPW / fpToSlotW live in
// vm/SlotBits.h, shared with the JIT runtime shims so both engines compute
// from one definition.

/// Reinterprets a slot as double given its IR type.
double slotToFP(uint64_t Bits, const Type *Ty) {
  if (Ty->getKind() == Type::Kind::Float) {
    float F;
    uint32_t Low = static_cast<uint32_t>(Bits);
    std::memcpy(&F, &Low, sizeof(F));
    return F;
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// Encodes a double into a slot of IR type \p Ty.
uint64_t fpToSlot(double Value, const Type *Ty) {
  if (Ty->getKind() == Type::Kind::Float) {
    float F = static_cast<float>(Value);
    uint32_t Low;
    std::memcpy(&Low, &F, sizeof(F));
    return Low;
  }
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Value));
  return Bits;
}

Statistic NumRequests("vm.requests-served",
                      "Requests served through runRequest()");
Statistic NumRequestTraps("vm.request-traps",
                          "Requests that ended in a trap");
Statistic NumRequestRecoveries(
    "vm.request-recoveries",
    "Post-trap request-state recoveries performed");
Histogram RequestSteps("vm.request-steps",
                       "Fuel steps consumed per runRequest() call");
Histogram RequestNanos(
    "vm.request-nanos",
    "Wall-clock nanoseconds per runRequest() call (obs timing only)");
Histogram HeapResetBytes(
    "vm.heap-reset-bytes",
    "Heap prefix bytes zeroed at each request boundary");
Histogram ScrubStackBytes(
    "vm.scrub-stack-bytes",
    "Stack bytes scrubbed per post-trap recovery");

} // namespace

Interpreter::Interpreter(Module &M, RandomSource *Rng,
                         InterpreterOptions Opts)
    : M(M), Rng(Rng), Opts(Opts) {
  assert(Opts.StackBaseOffset < MemoryMap::StackSize / 2 &&
         "stack base randomization exceeds half the stack");
  if (this->Opts.UseJit && jitAvailable()) {
    // The JIT compiles decoded functions; it cannot tier the tree-walker.
    this->Opts.UseDecodedEngine = true;
    Jit = std::make_unique<JitCache>(this->Opts.JitThreshold);
  }
}

Interpreter::~Interpreter() = default;

void Interpreter::setSharedProgram(const DecodedProgram *Program) {
  // Cache entries are keyed on the old program's DecodedFunctions, which a
  // new program replaces; reusing them would execute stale code against
  // dangling decode state.
  if (Jit && Program != SharedProgram)
    Jit->clear();
  SharedProgram = Program;
}

uint64_t Interpreter::jitCompiledFunctions() const {
  return Jit ? Jit->compiledFunctions() : 0;
}

const Interpreter::Numbering &Interpreter::getNumbering(Function *F) {
  auto It = Numberings.find(F);
  if (It != Numberings.end())
    return It->second;
  Numbering N;
  for (unsigned I = 0, E = F->getNumArgs(); I != E; ++I)
    N.Index[F->getArg(I)] = N.Count++;
  for (const auto &Block : *F)
    for (const auto &Inst : *Block)
      if (!Inst->getType()->isVoid())
        N.Index[Inst.get()] = N.Count++;
  return Numberings.emplace(F, std::move(N)).first->second;
}

const DecodedFunction &Interpreter::getDecoded(Function *F) {
  // The shared program (if any) is immutable and covers every definition
  // of the module, so the common pool-worker path is one read-only lookup.
  if (SharedProgram)
    if (const DecodedFunction *DF = SharedProgram->find(F))
      return *DF;
  auto It = DecodedCache.find(F);
  if (It == DecodedCache.end()) {
    uint32_t Index = 0;
    for (size_t E = M.getNumFunctions();
         Index != E && M.getFunctionAt(Index) != F;)
      ++Index;
    It = DecodedCache.emplace(F, decodeFunction(*F, GlobalAddresses, Index))
             .first;
  }
  return *It->second;
}

void Interpreter::loadGlobals() {
  if (GlobalsLoaded)
    return;
  GlobalsLoaded = true;
  GlobalAddresses = layoutModuleGlobals(M);
  for (size_t I = 0, E = M.getNumGlobals(); I != E; ++I) {
    const GlobalVariable *G = M.getGlobalAt(I);
    const std::vector<uint8_t> &Init = G->getInitializer();
    if (!Init.empty())
      Memory.write(GlobalAddresses[G->getName()], Init.data(), Init.size(),
                   /*IgnoreProtection=*/true);
  }
}

uint64_t Interpreter::getGlobalAddress(const std::string &Name) const {
  auto It = GlobalAddresses.find(Name);
  return It == GlobalAddresses.end() ? 0 : It->second;
}

uint64_t Interpreter::getValue(const Frame &Fr, const Value *V) const {
  if (const auto *CI = dyn_cast<ConstantInt>(V))
    return maskToWidth(CI->getZExtValue(), scalarWidth(CI->getType()));
  if (const auto *CF = dyn_cast<ConstantFP>(V))
    return fpToSlot(CF->getValue(), CF->getType());
  if (const auto *G = dyn_cast<GlobalVariable>(V)) {
    auto It = GlobalAddresses.find(G->getName());
    assert(It != GlobalAddresses.end() && "global not loaded");
    return It->second;
  }
  auto It = Fr.N->Index.find(V);
  assert(It != Fr.N->Index.end() && "value has no register");
  return Fr.Registers[It->second];
}

void Interpreter::setValue(Frame &Fr, const Value *V, uint64_t Bits) {
  auto It = Fr.N->Index.find(V);
  assert(It != Fr.N->Index.end() && "value has no register");
  Fr.Registers[It->second] =
      V->getType()->isFloatingPoint()
          ? Bits
          : maskToWidth(Bits, scalarWidth(V->getType()));
}

ExecResult Interpreter::run(const std::string &FuncName,
                            const std::vector<uint64_t> &Args) {
  loadGlobals();
  Function *F = M.getFunction(FuncName);
  ExecResult Result;
  if (!F || F->isDeclaration()) {
    Result.Trap = TrapKind::BadCall;
    Result.Message = "no such function definition: " + FuncName;
    return Result;
  }
  // Both engines read Args by parameter index without a bound check: too
  // few would read past the vector, too many would write past the
  // callee's register file.
  if (Args.size() != F->getNumArgs()) {
    Result.Trap = TrapKind::BadCall;
    Result.Message = formatString("'%s' takes %u argument(s), %zu given",
                                  FuncName.c_str(), F->getNumArgs(),
                                  Args.size());
    return Result;
  }
  Memory.clearTrap();
  StackPointer = MemoryMap::StackTop - MemoryMap::StackHeadroom -
                 alignTo(Opts.StackBaseOffset, 16);
  StackLowWater = StackPointer;
  FuelLeft = Opts.Fuel;
  CallCount = 0;
  if (Opts.UseDecodedEngine) {
    // Size the depth-indexed register pool up front: callDecoded holds a
    // reference into it across recursive calls, so it must never resize
    // mid-run. Depth is bounded by MaxCallDepth before indexing.
    if (RegisterPool.size() < Opts.MaxCallDepth + 1)
      RegisterPool.resize(Opts.MaxCallDepth + 1);
    Result.ReturnValue = callDecoded(getDecoded(F), Args, Result, 0);
    if (Jit)
      Jit->flushStats();
  } else {
    Result.ReturnValue = callFunction(F, Args, Result, 0);
  }
  Result.Steps = Opts.Fuel - FuelLeft;
  return Result;
}

uint64_t Interpreter::materializeAlloca(const Function &F,
                                        const AllocaInst &Alloca,
                                        uint64_t Count, ExecResult &Result) {
  uint64_t ElemSize = Alloca.getAllocatedType()->sizeInBytes();
  uint64_t Bytes;
  // The VLA element count is attacker-controllable; an unchecked
  // ElemSize * Count can wrap to a tiny value and slip past the bounds
  // check below, handing out a stack pointer with almost no backing space.
  if (__builtin_mul_overflow(ElemSize, Count, &Bytes)) {
    Result.Trap = TrapKind::StackOverflow;
    Result.Message = formatString(
        "alloca size overflow (%llu x %llu elements) in '%s'",
        (unsigned long long)ElemSize, (unsigned long long)Count,
        F.getName().c_str());
    return 0;
  }
  uint64_t Align = Alloca.getAlign();
  if (Bytes > MemoryMap::StackSize ||
      StackPointer < MemoryMap::StackBase + Bytes) {
    Result.Trap = TrapKind::StackOverflow;
    Result.Message = formatString("alloca of %llu bytes in '%s'",
                                  (unsigned long long)Bytes,
                                  F.getName().c_str());
    return 0;
  }
  StackPointer -= Bytes;
  StackPointer &= ~(Align - 1); // align down; alignments are powers of two
  if (StackPointer < MemoryMap::StackBase) {
    Result.Trap = TrapKind::StackOverflow;
    Result.Message = "stack exhausted";
    return 0;
  }
  if (StackPointer < StackLowWater)
    StackLowWater = StackPointer;
  if (TheObserver)
    TheObserver->onAlloca(F, Alloca, StackPointer, Bytes);
  return StackPointer;
}

ExecResult Interpreter::runRequest(const std::string &FuncName,
                                   const std::vector<uint64_t> &Args) {
  // Fresh per-request output and heap arena; globals persist, matching a
  // long-lived server process handling independent connections.
  Output.clear();
  HeapResetBytes.record(Memory.resetHeap());
  // The clock is read only while obs timing is enabled; the disabled path
  // pays one relaxed load (the probe pattern, DESIGN.md §11).
  bool Timed = obsTimingEnabled();
  uint64_t Start = Timed ? obsNowNanos() : 0;
  ExecResult Result = run(FuncName, Args);
  if (Timed)
    RequestNanos.record(obsNowNanos() - Start);
  RequestSteps.record(Result.Steps);
  ++RequestsServed;
  ++NumRequests;
  if (!Result.ok()) {
    ++RequestTraps;
    ++NumRequestTraps;
    recoverRequestState();
    ++RequestRecoveries;
    ++NumRequestRecoveries;
  }
  return Result;
}

void Interpreter::recoverRequestState() {
  // A trapped request aborted mid-execution, leaving attacker-written bytes
  // in the dead frames. Scrub from the run's low-water mark (minus slack
  // for alignment and the headroom an overflow can reach into) to the top
  // of the stack so the next request cannot observe or be steered by them.
  uint64_t From = StackLowWater > MemoryMap::StackBase + ScrubSlack
                      ? StackLowWater - ScrubSlack
                      : MemoryMap::StackBase;
  ScrubStackBytes.record(Memory.scrubStack(From));
  // Drop the decoded-engine frame pools: registers are assigned on entry,
  // but a recovered server must not keep stale register images around.
  for (std::vector<uint64_t> &Regs : RegisterPool)
    Regs.clear();
  InputQueue.clear();
  Memory.clearTrap();
}

uint64_t Interpreter::callFunction(Function *F,
                                   const std::vector<uint64_t> &Args,
                                   ExecResult &Result, unsigned Depth) {
  if (Depth > Opts.MaxCallDepth) {
    Result.Trap = TrapKind::StackOverflow;
    Result.Message = "call depth limit reached in " + F->getName();
    return 0;
  }
  ++CallCount;
  const Numbering &N = getNumbering(F);
  Frame Fr;
  Fr.F = F;
  Fr.N = &N;
  Fr.Registers.assign(N.Count, 0);
  Fr.SavedStackPointer = StackPointer;
  assert(Args.size() == F->getNumArgs() && "argument count mismatch");
  for (unsigned I = 0, E = F->getNumArgs(); I != E; ++I)
    setValue(Fr, F->getArg(I), Args[I]);

  if (TheObserver)
    TheObserver->onFunctionEnter(*F);

  const BasicBlock *Block = F->getEntryBlock();
  size_t InstIndex = 0;

  while (true) {
    if (FuelLeft == 0) {
      Result.Trap = TrapKind::OutOfFuel;
      Result.Message = "instruction budget exhausted in " + F->getName();
      break;
    }
    if ((FuelLeft & CancelCheckMask) == 0 && CancelFlag &&
        CancelFlag->load(std::memory_order_relaxed)) {
      Result.Trap = TrapKind::WorkerCrash;
      Result.Message = "cooperative cancel in " + F->getName();
      break;
    }
    --FuelLeft;
    assert(InstIndex < Block->size() && "fell off a basic block");
    const Instruction *Inst = Block->at(InstIndex++);

    switch (Inst->getOpcode()) {
    case Instruction::Opcode::Alloca: {
      const auto *Alloca = cast<AllocaInst>(Inst);
      uint64_t Count = 1;
      if (Alloca->isVLA())
        Count = getValue(Fr, Alloca->getCount());
      uint64_t Addr = materializeAlloca(*F, *Alloca, Count, Result);
      if (Result.Trap != TrapKind::None)
        break;
      setValue(Fr, Inst, Addr);
      continue;
    }
    case Instruction::Opcode::Load: {
      const auto *Load = cast<LoadInst>(Inst);
      uint64_t Addr = getValue(Fr, Load->getPointer());
      uint64_t Bits = 0;
      if (!Memory.loadInt(Addr, scalarWidth(Load->getType()), Bits)) {
        Result.Trap = Memory.getTrap();
        Result.Message = Memory.getTrapMessage();
        break;
      }
      setValue(Fr, Inst, Bits);
      continue;
    }
    case Instruction::Opcode::Store: {
      const auto *Store = cast<StoreInst>(Inst);
      uint64_t Addr = getValue(Fr, Store->getPointer());
      uint64_t Bits = getValue(Fr, Store->getStoredValue());
      uint64_t Width = scalarWidth(Store->getStoredValue()->getType());
      if (!Memory.storeInt(Addr, Width, Bits)) {
        Result.Trap = Memory.getTrap();
        Result.Message = Memory.getTrapMessage();
        break;
      }
      continue;
    }
    case Instruction::Opcode::Gep: {
      const auto *Gep = cast<GepInst>(Inst);
      uint64_t Addr = getValue(Fr, Gep->getBase());
      if (const Value *Index = Gep->getIndex())
        Addr += getValue(Fr, Index) * Gep->getScale();
      Addr += static_cast<uint64_t>(Gep->getConstOffset());
      setValue(Fr, Inst, Addr);
      // Smokestack frame slices are named "<var>.ss"; report the logical
      // variable's address so disclosure-based attacks see instrumented
      // frames the same way they see plain allocas.
      if (TheObserver) {
        const std::string &Name = Inst->getName();
        if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, ".ss") == 0)
          TheObserver->onVariableAddress(*F, Name.substr(0, Name.size() - 3),
                                         Addr);
      }
      continue;
    }
    case Instruction::Opcode::BinOp: {
      const auto *Bin = cast<BinaryInst>(Inst);
      uint64_t L = getValue(Fr, Bin->getLHS());
      uint64_t R = getValue(Fr, Bin->getRHS());
      const Type *Ty = Bin->getType();
      uint64_t Width = scalarWidth(Ty);
      uint64_t Out = 0;
      bool Trapped = false;
      using BinOp = BinaryInst::BinOp;
      switch (Bin->getBinOp()) {
      case BinOp::Add:
        Out = L + R;
        break;
      case BinOp::Sub:
        Out = L - R;
        break;
      case BinOp::Mul:
        Out = L * R;
        break;
      case BinOp::UDiv:
      case BinOp::URem:
        if (R == 0) {
          Trapped = true;
          break;
        }
        Out = Bin->getBinOp() == BinOp::UDiv ? L / R : L % R;
        break;
      case BinOp::SDiv:
      case BinOp::SRem: {
        int64_t SL = sextFromWidth(L, Width), SR = sextFromWidth(R, Width);
        if (SR == 0) {
          Trapped = true;
          break;
        }
        if (SL == INT64_MIN && SR == -1)
          Out = static_cast<uint64_t>(SL); // wraps, remainder 0
        else
          Out = static_cast<uint64_t>(Bin->getBinOp() == BinOp::SDiv
                                          ? SL / SR
                                          : SL % SR);
        break;
      }
      case BinOp::And:
        Out = L & R;
        break;
      case BinOp::Or:
        Out = L | R;
        break;
      case BinOp::Xor:
        Out = L ^ R;
        break;
      case BinOp::Shl:
        Out = R >= Width * 8 ? 0 : L << R;
        break;
      case BinOp::LShr:
        Out = R >= Width * 8 ? 0 : L >> R;
        break;
      case BinOp::AShr: {
        int64_t SL = sextFromWidth(L, Width);
        Out = static_cast<uint64_t>(R >= Width * 8 ? (SL < 0 ? -1 : 0)
                                                   : SL >> R);
        break;
      }
      case BinOp::FAdd:
        Out = fpToSlot(slotToFP(L, Ty) + slotToFP(R, Ty), Ty);
        break;
      case BinOp::FSub:
        Out = fpToSlot(slotToFP(L, Ty) - slotToFP(R, Ty), Ty);
        break;
      case BinOp::FMul:
        Out = fpToSlot(slotToFP(L, Ty) * slotToFP(R, Ty), Ty);
        break;
      case BinOp::FDiv:
        Out = fpToSlot(slotToFP(L, Ty) / slotToFP(R, Ty), Ty);
        break;
      }
      if (Trapped) {
        Result.Trap = TrapKind::DivisionByZero;
        Result.Message = "division by zero in " + F->getName();
        break;
      }
      setValue(Fr, Inst, Out);
      continue;
    }
    case Instruction::Opcode::ICmp: {
      const auto *Cmp = cast<ICmpInst>(Inst);
      uint64_t L = getValue(Fr, Cmp->getLHS());
      uint64_t R = getValue(Fr, Cmp->getRHS());
      const Type *OpTy = Cmp->getLHS()->getType();
      bool Out = false;
      using Pred = ICmpInst::Predicate;
      if (OpTy->isFloatingPoint()) {
        double DL = slotToFP(L, OpTy), DR = slotToFP(R, OpTy);
        switch (Cmp->getPredicate()) {
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
      } else {
        uint64_t Width = scalarWidth(OpTy);
        int64_t SL = sextFromWidth(L, Width), SR = sextFromWidth(R, Width);
        switch (Cmp->getPredicate()) {
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
      }
      setValue(Fr, Inst, Out ? 1 : 0);
      continue;
    }
    case Instruction::Opcode::Cast: {
      const auto *Cast = smokestack::cast<CastInst>(Inst);
      uint64_t Src = getValue(Fr, Cast->getSource());
      const Type *SrcTy = Cast->getSource()->getType();
      const Type *DstTy = Cast->getType();
      uint64_t Out = 0;
      using CastOp = CastInst::CastOp;
      switch (Cast->getCastOp()) {
      case CastOp::Trunc:
      case CastOp::Bitcast:
      case CastOp::PtrToInt:
      case CastOp::IntToPtr:
      case CastOp::ZExt:
        Out = Src; // setValue masks to the destination width
        break;
      case CastOp::SExt:
        Out = static_cast<uint64_t>(
            sextFromWidth(Src, scalarWidth(SrcTy)));
        break;
      case CastOp::FPToSI:
        Out = static_cast<uint64_t>(
            static_cast<int64_t>(slotToFP(Src, SrcTy)));
        break;
      case CastOp::SIToFP:
        Out = fpToSlot(
            static_cast<double>(sextFromWidth(Src, scalarWidth(SrcTy))),
            DstTy);
        break;
      case CastOp::FPExt:
      case CastOp::FPTrunc:
        Out = fpToSlot(slotToFP(Src, SrcTy), DstTy);
        break;
      }
      setValue(Fr, Inst, Out);
      continue;
    }
    case Instruction::Opcode::Select: {
      const auto *Sel = cast<SelectInst>(Inst);
      uint64_t Cond = getValue(Fr, Sel->getCondition());
      setValue(Fr, Inst,
               getValue(Fr, Cond ? Sel->getTrueValue()
                                 : Sel->getFalseValue()));
      continue;
    }
    case Instruction::Opcode::Br: {
      const auto *Br = cast<BranchInst>(Inst);
      if (!Br->isConditional() || getValue(Fr, Br->getCondition()))
        Block = Br->getTrueTarget();
      else
        Block = Br->getFalseTarget();
      InstIndex = 0;
      continue;
    }
    case Instruction::Opcode::Call: {
      const auto *Call = cast<CallInst>(Inst);
      Function *Callee = Call->getCallee();
      std::vector<uint64_t> CallArgs;
      CallArgs.reserve(Call->getNumArgs());
      for (unsigned I = 0, E = Call->getNumArgs(); I != E; ++I)
        CallArgs.push_back(getValue(Fr, Call->getArg(I)));
      uint64_t RetValue = 0;
      if (Callee->isDeclaration()) {
        if (!dispatchBuiltin(builtinIdFor(Callee->getName()), *Callee,
                             CallArgs, RetValue, Result))
          break;
      } else {
        RetValue = callFunction(Callee, CallArgs, Result, Depth + 1);
        if (Result.Trap != TrapKind::None)
          break;
      }
      if (!Call->getType()->isVoid())
        setValue(Fr, Inst, RetValue);
      continue;
    }
    case Instruction::Opcode::Ret: {
      const auto *Ret = cast<RetInst>(Inst);
      uint64_t RetValue =
          Ret->getReturnValue() ? getValue(Fr, Ret->getReturnValue()) : 0;
      StackPointer = Fr.SavedStackPointer;
      return RetValue;
    }
    case Instruction::Opcode::Unreachable:
      Result.Trap = TrapKind::ExplicitTrap;
      Result.Message = "reached unreachable in " + F->getName();
      break;
    }
    // Any path that did not 'continue' above trapped.
    break;
  }

  StackPointer = Fr.SavedStackPointer;
  return 0;
}

bool Interpreter::callSite(const DecodedFunction &DF,
                           const DecodedCallSite &CS, const uint64_t *Regs,
                           unsigned Depth, uint64_t &RetValue,
                           ExecResult &Result) {
  // Arguments are copied out of the caller's register file (the callee's
  // file at Depth+1 is rebuilt on entry); a stack buffer covers every
  // call of the shipped modules, longer argument lists spill to the heap.
  constexpr uint32_t InlineArgs = 8;
  uint64_t Inline[InlineArgs] = {};
  std::vector<uint64_t> Spill;
  uint64_t *Buf = Inline;
  if (CS.NumArgs > InlineArgs) {
    Spill.resize(CS.NumArgs);
    Buf = Spill.data();
  }
  const uint32_t *ArgRegs = DF.CallArgRegs.data() + CS.ArgStart;
  for (uint32_t I = 0; I != CS.NumArgs; ++I)
    Buf[I] = Regs[ArgRegs[I]];
  std::span<const uint64_t> Args(Buf, CS.NumArgs);

  if (CS.Builtin != BuiltinId::None)
    return dispatchBuiltin(CS.Builtin, *CS.Callee, Args, RetValue, Result);
  const DecodedFunction &Callee =
      CS.CalleeDF ? *CS.CalleeDF : getDecoded(CS.Callee);
  RetValue = callDecoded(Callee, Args, Result, Depth + 1);
  return Result.Trap == TrapKind::None;
}

uint64_t Interpreter::callDecoded(const DecodedFunction &DF,
                                  std::span<const uint64_t> Args,
                                  ExecResult &Result, unsigned Depth) {
  Function *F = DF.F;
  if (Depth > Opts.MaxCallDepth) {
    Result.Trap = TrapKind::StackOverflow;
    Result.Message = "call depth limit reached in " + F->getName();
    return 0;
  }
  ++CallCount;
  // One register file per depth, reused across calls: [mutable | constants].
  // Only one frame is live per depth at a time, and run() pre-sized the
  // pool, so this reference stays valid through recursive calls.
  std::vector<uint64_t> &Regs = RegisterPool[Depth];
  Regs.assign(DF.NumSlots, 0);
  if (!DF.ConstPool.empty()) // an empty pool's data() may be null
    std::memcpy(Regs.data() + DF.NumMutable, DF.ConstPool.data(),
                DF.ConstPool.size() * sizeof(uint64_t));
  assert(Args.size() == F->getNumArgs() && "argument count mismatch");
  for (size_t I = 0, E = Args.size(); I != E; ++I)
    Regs[I] = DF.ArgWidths[I] ? maskToWidth(Args[I], DF.ArgWidths[I])
                              : Args[I];
  uint64_t SavedStackPointer = StackPointer;

  if (TheObserver)
    TheObserver->onFunctionEnter(*F);

  // Hot functions run as native code from here: the entry sequence above
  // (depth check, call accounting, register-file image, observer) and the
  // exit below (stack-pointer restore, trap propagation) are shared with
  // the decoded engine verbatim, so only the dispatch loop differs — and
  // the compiled loop keeps the same books (see jit/JitAbi.h).
  if (Jit) {
    if (JitFn Fn = Jit->onCall(DF)) {
      SimMemory::JitStackView SV = Memory.jitStackView();
      JitContext Ctx;
      Ctx.Interp = this;
      Ctx.DF = &DF;
      Ctx.Result = &Result;
      Ctx.Depth = Depth;
      Ctx.FuelLeft = &FuelLeft;
      Ctx.StackHost = SV.Host;
      Ctx.StackTouchedLo = SV.TouchedLo;
      Ctx.StackTouchedHi = SV.TouchedHi;
      Ctx.RODataHost = Memory.jitRODataHost();
      Ctx.StackPointer = &StackPointer;
      Ctx.StackLowWater = &StackLowWater;
      Ctx.Observed = TheObserver != nullptr;
      uint64_t Trapped = Fn(&Ctx, Regs.data());
      StackPointer = SavedStackPointer;
      return Trapped ? 0 : Ctx.RetValue;
    }
  }

  size_t IP = 0;
  while (true) {
    if (FuelLeft == 0) {
      Result.Trap = TrapKind::OutOfFuel;
      Result.Message = "instruction budget exhausted in " + F->getName();
      break;
    }
    if ((FuelLeft & CancelCheckMask) == 0 && CancelFlag &&
        CancelFlag->load(std::memory_order_relaxed)) {
      Result.Trap = TrapKind::WorkerCrash;
      Result.Message = "cooperative cancel in " + F->getName();
      break;
    }
    --FuelLeft;
    assert(IP < DF.Insts.size() && "fell off the decoded instruction array");
    const DecodedInst &DI = DF.Insts[IP++];

    switch (DI.Op) {
    case DecodedOp::AllocaStatic:
    case DecodedOp::AllocaVLA: {
      uint64_t Count = DI.Op == DecodedOp::AllocaVLA ? Regs[DI.A] : 1;
      uint64_t Addr = materializeAlloca(
          *F, *cast<AllocaInst>(DI.Src), Count, Result);
      if (Result.Trap != TrapKind::None)
        break;
      Regs[DI.Dest] = Addr;
      continue;
    }
    case DecodedOp::Load: {
      uint64_t Bits = 0;
      if (!Memory.loadInt(Regs[DI.A], DI.Width, Bits)) {
        Result.Trap = Memory.getTrap();
        Result.Message = Memory.getTrapMessage();
        break;
      }
      Regs[DI.Dest] = Bits;
      continue;
    }
    case DecodedOp::Store:
      if (!Memory.storeInt(Regs[DI.B], DI.Width, Regs[DI.A])) {
        Result.Trap = Memory.getTrap();
        Result.Message = Memory.getTrapMessage();
        break;
      }
      continue;
    case DecodedOp::GepConst:
      Regs[DI.Dest] = Regs[DI.A] + static_cast<uint64_t>(DI.Imm);
      continue;
    case DecodedOp::GepIndex:
      Regs[DI.Dest] =
          Regs[DI.A] + Regs[DI.B] * DI.C + static_cast<uint64_t>(DI.Imm);
      continue;
    case DecodedOp::GepConstObs:
    case DecodedOp::GepIndexObs: {
      uint64_t Addr = Regs[DI.A] + static_cast<uint64_t>(DI.Imm);
      if (DI.Op == DecodedOp::GepIndexObs)
        Addr += Regs[DI.B] * DI.C;
      Regs[DI.Dest] = Addr;
      if (TheObserver) {
        const std::string &Name = DI.Src->getName();
        TheObserver->onVariableAddress(
            *F, Name.substr(0, Name.size() - 3), Addr);
      }
      continue;
    }
    case DecodedOp::Add:
      Regs[DI.Dest] = maskToWidth(Regs[DI.A] + Regs[DI.B], DI.Width);
      continue;
    case DecodedOp::Sub:
      Regs[DI.Dest] = maskToWidth(Regs[DI.A] - Regs[DI.B], DI.Width);
      continue;
    case DecodedOp::Mul:
      Regs[DI.Dest] = maskToWidth(Regs[DI.A] * Regs[DI.B], DI.Width);
      continue;
    case DecodedOp::UDiv:
    case DecodedOp::URem: {
      uint64_t L = Regs[DI.A], R = Regs[DI.B];
      if (R == 0) {
        Result.Trap = TrapKind::DivisionByZero;
        Result.Message = "division by zero in " + F->getName();
        break;
      }
      Regs[DI.Dest] = DI.Op == DecodedOp::UDiv ? L / R : L % R;
      continue;
    }
    case DecodedOp::SDiv:
    case DecodedOp::SRem: {
      int64_t SL = sextFromWidth(Regs[DI.A], DI.Width);
      int64_t SR = sextFromWidth(Regs[DI.B], DI.Width);
      if (SR == 0) {
        Result.Trap = TrapKind::DivisionByZero;
        Result.Message = "division by zero in " + F->getName();
        break;
      }
      uint64_t Out;
      if (SL == INT64_MIN && SR == -1)
        Out = static_cast<uint64_t>(SL); // wraps, remainder 0
      else
        Out = static_cast<uint64_t>(DI.Op == DecodedOp::SDiv ? SL / SR
                                                             : SL % SR);
      Regs[DI.Dest] = maskToWidth(Out, DI.Width);
      continue;
    }
    case DecodedOp::And:
      Regs[DI.Dest] = Regs[DI.A] & Regs[DI.B];
      continue;
    case DecodedOp::Or:
      Regs[DI.Dest] = Regs[DI.A] | Regs[DI.B];
      continue;
    case DecodedOp::Xor:
      Regs[DI.Dest] = Regs[DI.A] ^ Regs[DI.B];
      continue;
    case DecodedOp::Shl: {
      uint64_t R = Regs[DI.B];
      Regs[DI.Dest] = R >= DI.Width * 8u
                          ? 0
                          : maskToWidth(Regs[DI.A] << R, DI.Width);
      continue;
    }
    case DecodedOp::LShr: {
      uint64_t R = Regs[DI.B];
      Regs[DI.Dest] = R >= DI.Width * 8u ? 0 : Regs[DI.A] >> R;
      continue;
    }
    case DecodedOp::AShr: {
      int64_t SL = sextFromWidth(Regs[DI.A], DI.Width);
      uint64_t R = Regs[DI.B];
      uint64_t Out = static_cast<uint64_t>(
          R >= DI.Width * 8u ? (SL < 0 ? -1 : 0) : SL >> R);
      Regs[DI.Dest] = maskToWidth(Out, DI.Width);
      continue;
    }
    case DecodedOp::FAdd:
      Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) +
                                    slotToFPW(Regs[DI.B], DI.Width),
                                DI.Width);
      continue;
    case DecodedOp::FSub:
      Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) -
                                    slotToFPW(Regs[DI.B], DI.Width),
                                DI.Width);
      continue;
    case DecodedOp::FMul:
      Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) *
                                    slotToFPW(Regs[DI.B], DI.Width),
                                DI.Width);
      continue;
    case DecodedOp::FDiv:
      Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) /
                                    slotToFPW(Regs[DI.B], DI.Width),
                                DI.Width);
      continue;
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
      continue;
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
      continue;
    }
    case DecodedOp::CastCopy:
      Regs[DI.Dest] = maskToWidth(Regs[DI.A], DI.Width);
      continue;
    case DecodedOp::CastSExt:
      Regs[DI.Dest] = maskToWidth(
          static_cast<uint64_t>(sextFromWidth(Regs[DI.A], DI.C)), DI.Width);
      continue;
    case DecodedOp::CastFPToSI:
      Regs[DI.Dest] = maskToWidth(
          static_cast<uint64_t>(
              static_cast<int64_t>(slotToFPW(Regs[DI.A], DI.C))),
          DI.Width);
      continue;
    case DecodedOp::CastSIToFP:
      Regs[DI.Dest] = fpToSlotW(
          static_cast<double>(sextFromWidth(Regs[DI.A], DI.C)), DI.Width);
      continue;
    case DecodedOp::CastFPConvert:
      Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.C), DI.Width);
      continue;
    case DecodedOp::Select:
      Regs[DI.Dest] = Regs[DI.A] ? Regs[DI.B] : Regs[DI.C];
      continue;
    case DecodedOp::Br:
      IP = DI.A;
      continue;
    case DecodedOp::CondBr:
      IP = Regs[DI.A] ? DI.B : DI.C;
      continue;
    case DecodedOp::Call: {
      uint64_t RetValue = 0;
      if (!callSite(DF, DF.CallSites[DI.A], Regs.data(), Depth, RetValue,
                    Result))
        break;
      if (DI.Dest != DecodedInst::NoReg)
        Regs[DI.Dest] = DI.Width ? maskToWidth(RetValue, DI.Width) : RetValue;
      continue;
    }
    case DecodedOp::Ret:
      StackPointer = SavedStackPointer;
      return Regs[DI.A];
    case DecodedOp::RetVoid:
      StackPointer = SavedStackPointer;
      return 0;
    case DecodedOp::Unreachable:
      Result.Trap = TrapKind::ExplicitTrap;
      Result.Message = "reached unreachable in " + F->getName();
      break;
    }
    // Any path that did not 'continue' above trapped.
    break;
  }

  StackPointer = SavedStackPointer;
  return 0;
}
