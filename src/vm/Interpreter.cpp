//===- vm/Interpreter.cpp - Mini-IR interpreter ----------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "rng/Resilient.h"
#include "support/Align.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "jit/JitCache.h"
#include "vm/DecodedProgram.h"
#include "vm/SlotBits.h"

#include <cassert>
#include <cstring>

using namespace smokestack;

LayoutObserver::~LayoutObserver() = default;

namespace {

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
// The reset's books keep their "snapshot" names: perfbench
// (runtime.restores_per_kreq) and the crash-repair tests read them.
Statistic NumResets("vm.snapshot-restores",
                    "VMs returned to their load state (resetToLoad)");
Histogram ResetBytes("vm.snapshot-restore-bytes",
                     "Bytes zeroed + rewritten per resetToLoad");
Histogram ResetNanos(
    "vm.snapshot-restore-nanos",
    "Wall-clock nanoseconds per resetToLoad (obs timing only)");

} // namespace

Interpreter::Interpreter(Module &M, RandomSource *Rng,
                         InterpreterOptions Opts)
    : M(M), Opts(Opts) {
  assert(Opts.StackBaseOffset < MemoryMap::StackSize / 2 &&
         "stack base randomization exceeds half the stack");
  setRandomSource(Rng);
  if (this->Opts.UseJit && jitAvailable())
    Jit = std::make_unique<JitCache>(this->Opts.JitThreshold);
}

Interpreter::~Interpreter() = default;

void Interpreter::setRandomSource(RandomSource *Source) {
  Rng = Source;
  Chain = dynamic_cast<ResilientRandomSource *>(Source);
}

void Interpreter::setSharedProgram(const DecodedProgram *Shared) {
  assert(Shared && "a loaded VM reads its global layout from the program");
  // Cache entries are keyed on the old program's DecodedFunctions, which a
  // new program replaces; reusing them would execute stale code against
  // dangling decode state.
  if (Jit && Shared != Program)
    Jit->clear();
  Program = Shared;
  if (Shared != OwnedProgram.get())
    OwnedProgram.reset();
}

uint64_t Interpreter::jitCompiledFunctions() const {
  return Jit ? Jit->compiledFunctions() : 0;
}

void Interpreter::loadGlobals() {
  if (GlobalsLoaded)
    return;
  GlobalsLoaded = true;
  if (!Program) {
    // Decode the whole module once; every direct call site binds its
    // callee's decoded form, and the program holds the global layout.
    OwnedProgram = std::make_unique<DecodedProgram>(M);
    Program = OwnedProgram.get();
  }
  writeGlobalInitializers(/*ReadOnlyToo=*/true);
}

uint64_t Interpreter::writeGlobalInitializers(bool ReadOnlyToo) {
  const auto &Addresses = Program->globalAddresses();
  uint64_t Written = 0;
  for (size_t I = 0, E = M.getNumGlobals(); I != E; ++I) {
    const GlobalVariable *G = M.getGlobalAt(I);
    const std::vector<uint8_t> &Init = G->getInitializer();
    if (Init.empty() || (G->isReadOnly() && !ReadOnlyToo))
      continue;
    Memory.write(Addresses.at(G->getName()), Init.data(), Init.size(),
                 /*IgnoreProtection=*/true);
    Written += Init.size();
  }
  return Written;
}

void Interpreter::resetToLoad() {
  bool Timed = obsTimingEnabled();
  uint64_t Start = Timed ? obsNowNanos() : 0;

  // A fresh VM's memory is all zeroes plus what loadGlobals writes. Read-only
  // data is never written after the loader (a store traps
  // ReadOnlyViolation), so zeroing the writable segments and writing the
  // writable globals again reproduces the load image exactly.
  uint64_t Written = Memory.zeroWritable();
  if (GlobalsLoaded)
    Written += writeGlobalInitializers(/*ReadOnlyToo=*/false);
  else
    loadGlobals();
  Memory.clearTrap();

  // Bookkeeping parity with a freshly constructed interpreter whose globals
  // are loaded: the request counters restart at zero (callers bank them
  // first, exactly as across a full rebuild) and the per-run state is
  // cleared. The decoded program (shared or owned) and the JIT code cache
  // survive deliberately — they are pure functions of the module, so
  // keeping them changes nothing observable and skips re-decoding.
  InputQueue.clear();
  Output.clear();
  StackPointer = 0;
  StackLowWater = 0;
  CallCount = 0;
  RequestsServed = 0;
  RequestTraps = 0;
  RequestRecoveries = 0;

  ++NumResets;
  ResetBytes.record(Written);
  if (Timed)
    ResetNanos.record(obsNowNanos() - Start);
}

uint64_t Interpreter::getGlobalAddress(const std::string &Name) const {
  if (!GlobalsLoaded)
    return 0;
  const auto &Addresses = Program->globalAddresses();
  auto It = Addresses.find(Name);
  return It == Addresses.end() ? 0 : It->second;
}

const Function *smokestack::findEntryPoint(const Module &M,
                                           const std::string &FuncName,
                                           size_t NumArgs, std::string &Why) {
  const Function *F = M.getFunction(FuncName);
  if (!F || F->isDeclaration()) {
    Why = "no function definition named '" + FuncName + "'";
    return nullptr;
  }
  if (NumArgs != F->getNumArgs()) {
    Why = formatString("'%s' takes %u argument(s), %zu given",
                       FuncName.c_str(), F->getNumArgs(), NumArgs);
    return nullptr;
  }
  return F;
}

ExecResult Interpreter::run(const std::string &FuncName,
                            const std::vector<uint64_t> &Args) {
  loadGlobals();
  ExecResult Result;
  // The engine reads Args by parameter index without a bound check: too
  // few would read past the vector, too many would write past the
  // callee's register file.
  const Function *F = findEntryPoint(M, FuncName, Args.size(), Result.Message);
  if (!F) {
    Result.Trap = TrapKind::BadCall;
    return Result;
  }
  const DecodedFunction *DF = Program->find(F);
  if (!DF) {
    // The program predates F: the Module changed after it was decoded.
    Result.Trap = TrapKind::BadCall;
    Result.Message = "'" + FuncName + "' is not in the decoded program";
    return Result;
  }
  Memory.clearTrap();
  StackPointer = MemoryMap::StackTop - MemoryMap::StackHeadroom -
                 alignTo(Opts.StackBaseOffset, 16);
  StackLowWater = StackPointer;
  FuelLeft = Opts.Fuel;
  CallCount = 0;
  // Size the register stack up front: frames hold pointers into it across
  // recursive calls, so it must never move mid-run. Depth is bounded by
  // MaxCallDepth before indexing. The words are left uninitialized (and
  // their pages untouched) until a frame at that depth is entered.
  FrameSlots = Program->maxSlots();
  size_t Slots = (static_cast<size_t>(Opts.MaxCallDepth) + 1) * FrameSlots;
  if (Slots > RegisterStackSlots) {
    RegisterStack = std::make_unique_for_overwrite<uint64_t[]>(Slots);
    RegisterStackSlots = Slots;
  }
  Result.ReturnValue = callDecoded(*DF, Args, Result, 0);
  if (Jit)
    Jit->flushStats();
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
  InputQueue.clear();
  Memory.clearTrap();
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
  RetValue = callDecoded(*CS.CalleeDF, Args, Result, Depth + 1);
  return Result.Trap == TrapKind::None;
}

[[gnu::always_inline]] inline Interpreter::ExecStatus
Interpreter::execInlined(const DecodedFunction &DF, const DecodedInst &DI,
                         uint64_t *Regs, unsigned Depth, ExecResult &Result,
                         size_t &IP) {
  Function *F = DF.F;
  switch (DI.Op) {
  case DecodedOp::AllocaStatic:
  case DecodedOp::AllocaVLA: {
    uint64_t Count = DI.Op == DecodedOp::AllocaVLA ? Regs[DI.A] : 1;
    uint64_t Addr =
        materializeAlloca(*F, *cast<AllocaInst>(DI.Src), Count, Result);
    if (Result.Trap != TrapKind::None)
      return ExecStatus::Trap;
    Regs[DI.Dest] = Addr;
    return ExecStatus::Next;
  }
  case DecodedOp::Load: {
    uint64_t Bits = 0;
    if (!Memory.loadInt(Regs[DI.A], DI.Width, Bits)) {
      Result.Trap = Memory.getTrap();
      Result.Message = Memory.getTrapMessage();
      return ExecStatus::Trap;
    }
    Regs[DI.Dest] = Bits;
    return ExecStatus::Next;
  }
  case DecodedOp::Store:
    if (!Memory.storeInt(Regs[DI.B], DI.Width, Regs[DI.A])) {
      Result.Trap = Memory.getTrap();
      Result.Message = Memory.getTrapMessage();
      return ExecStatus::Trap;
    }
    return ExecStatus::Next;
  case DecodedOp::GepConst:
    Regs[DI.Dest] = Regs[DI.A] + static_cast<uint64_t>(DI.Imm);
    return ExecStatus::Next;
  case DecodedOp::GepIndex:
    Regs[DI.Dest] =
        Regs[DI.A] + Regs[DI.B] * DI.C + static_cast<uint64_t>(DI.Imm);
    return ExecStatus::Next;
  case DecodedOp::GepConstObs:
  case DecodedOp::GepIndexObs: {
    uint64_t Addr = Regs[DI.A] + static_cast<uint64_t>(DI.Imm);
    if (DI.Op == DecodedOp::GepIndexObs)
      Addr += Regs[DI.B] * DI.C;
    Regs[DI.Dest] = Addr;
    if (TheObserver) {
      const std::string &Name = DI.Src->getName();
      TheObserver->onVariableAddress(*F, Name.substr(0, Name.size() - 3),
                                     Addr);
    }
    return ExecStatus::Next;
  }
  case DecodedOp::Add:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A] + Regs[DI.B], DI.Width);
    return ExecStatus::Next;
  case DecodedOp::Sub:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A] - Regs[DI.B], DI.Width);
    return ExecStatus::Next;
  case DecodedOp::Mul:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A] * Regs[DI.B], DI.Width);
    return ExecStatus::Next;
  case DecodedOp::UDiv:
  case DecodedOp::URem: {
    uint64_t L = Regs[DI.A], R = Regs[DI.B];
    if (R == 0) {
      Result.Trap = TrapKind::DivisionByZero;
      Result.Message = "division by zero in " + F->getName();
      return ExecStatus::Trap;
    }
    Regs[DI.Dest] = DI.Op == DecodedOp::UDiv ? L / R : L % R;
    return ExecStatus::Next;
  }
  case DecodedOp::SDiv:
  case DecodedOp::SRem: {
    int64_t SL = sextFromWidth(Regs[DI.A], DI.Width);
    int64_t SR = sextFromWidth(Regs[DI.B], DI.Width);
    if (SR == 0) {
      Result.Trap = TrapKind::DivisionByZero;
      Result.Message = "division by zero in " + F->getName();
      return ExecStatus::Trap;
    }
    uint64_t Out;
    if (SL == INT64_MIN && SR == -1)
      Out = static_cast<uint64_t>(SL); // wraps, remainder 0
    else
      Out = static_cast<uint64_t>(DI.Op == DecodedOp::SDiv ? SL / SR
                                                           : SL % SR);
    Regs[DI.Dest] = maskToWidth(Out, DI.Width);
    return ExecStatus::Next;
  }
  case DecodedOp::And:
    Regs[DI.Dest] = Regs[DI.A] & Regs[DI.B];
    return ExecStatus::Next;
  case DecodedOp::Or:
    Regs[DI.Dest] = Regs[DI.A] | Regs[DI.B];
    return ExecStatus::Next;
  case DecodedOp::Xor:
    Regs[DI.Dest] = Regs[DI.A] ^ Regs[DI.B];
    return ExecStatus::Next;
  case DecodedOp::Shl: {
    uint64_t R = Regs[DI.B];
    Regs[DI.Dest] =
        R >= DI.Width * 8u ? 0 : maskToWidth(Regs[DI.A] << R, DI.Width);
    return ExecStatus::Next;
  }
  case DecodedOp::LShr: {
    uint64_t R = Regs[DI.B];
    Regs[DI.Dest] = R >= DI.Width * 8u ? 0 : Regs[DI.A] >> R;
    return ExecStatus::Next;
  }
  case DecodedOp::AShr: {
    int64_t SL = sextFromWidth(Regs[DI.A], DI.Width);
    uint64_t R = Regs[DI.B];
    uint64_t Out = static_cast<uint64_t>(
        R >= DI.Width * 8u ? (SL < 0 ? -1 : 0) : SL >> R);
    Regs[DI.Dest] = maskToWidth(Out, DI.Width);
    return ExecStatus::Next;
  }
  case DecodedOp::FAdd:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) +
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return ExecStatus::Next;
  case DecodedOp::FSub:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) -
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return ExecStatus::Next;
  case DecodedOp::FMul:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) *
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return ExecStatus::Next;
  case DecodedOp::FDiv:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.Width) /
                                  slotToFPW(Regs[DI.B], DI.Width),
                              DI.Width);
    return ExecStatus::Next;
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
    return ExecStatus::Next;
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
    return ExecStatus::Next;
  }
  case DecodedOp::CastCopy:
    Regs[DI.Dest] = maskToWidth(Regs[DI.A], DI.Width);
    return ExecStatus::Next;
  case DecodedOp::CastSExt:
    Regs[DI.Dest] = maskToWidth(
        static_cast<uint64_t>(sextFromWidth(Regs[DI.A], DI.C)), DI.Width);
    return ExecStatus::Next;
  case DecodedOp::CastFPToSI:
    Regs[DI.Dest] = maskToWidth(
        static_cast<uint64_t>(
            static_cast<int64_t>(slotToFPW(Regs[DI.A], DI.C))),
        DI.Width);
    return ExecStatus::Next;
  case DecodedOp::CastSIToFP:
    Regs[DI.Dest] = fpToSlotW(
        static_cast<double>(sextFromWidth(Regs[DI.A], DI.C)), DI.Width);
    return ExecStatus::Next;
  case DecodedOp::CastFPConvert:
    Regs[DI.Dest] = fpToSlotW(slotToFPW(Regs[DI.A], DI.C), DI.Width);
    return ExecStatus::Next;
  case DecodedOp::Select:
    Regs[DI.Dest] = Regs[DI.A] ? Regs[DI.B] : Regs[DI.C];
    return ExecStatus::Next;
  case DecodedOp::Br:
    IP = DI.A;
    return ExecStatus::Next;
  case DecodedOp::CondBr:
    IP = Regs[DI.A] ? DI.B : DI.C;
    return ExecStatus::Next;
  case DecodedOp::Call: {
    uint64_t RetValue = 0;
    if (!callSite(DF, DF.CallSites[DI.A], Regs, Depth, RetValue, Result))
      return ExecStatus::Trap;
    if (DI.Dest != DecodedInst::NoReg)
      Regs[DI.Dest] = DI.Width ? maskToWidth(RetValue, DI.Width) : RetValue;
    return ExecStatus::Next;
  }
  case DecodedOp::Ret:
  case DecodedOp::RetVoid:
    return ExecStatus::Return;
  case DecodedOp::Unreachable:
    Result.Trap = TrapKind::ExplicitTrap;
    Result.Message = "reached unreachable in " + F->getName();
    return ExecStatus::Trap;
  }
  smokestack_unreachable("unknown decoded opcode");
}

bool Interpreter::execInst(const DecodedFunction &DF, size_t IP,
                           uint64_t *Regs, unsigned Depth,
                           ExecResult &Result) {
  size_t Next = IP + 1;
  ExecStatus S = execInlined(DF, DF.Insts[IP], Regs, Depth, Result, Next);
  assert(S != ExecStatus::Return && Next == IP + 1 &&
         "control flow routed to execInst");
  return S == ExecStatus::Next;
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
  // Only one frame is live per depth at a time, and run() sized the stack
  // for MaxCallDepth, so Regs stays valid through recursive calls.
  uint64_t *Regs = registerFile(Depth);
  std::memset(Regs, 0, DF.NumMutable * sizeof(uint64_t));
  if (!DF.ConstPool.empty()) // an empty pool's data() may be null
    std::memcpy(Regs + DF.NumMutable, DF.ConstPool.data(),
                DF.ConstPool.size() * sizeof(uint64_t));
  assert(Args.size() == F->getNumArgs() && "argument count mismatch");
  for (size_t I = 0, E = Args.size(); I != E; ++I)
    Regs[I] = DF.ArgWidths[I] ? maskToWidth(Args[I], DF.ArgWidths[I])
                              : Args[I];
  uint64_t SavedStackPointer = StackPointer;

  if (TheObserver)
    TheObserver->onFunctionEnter(*F);

  // Hot functions run as native code from here: the entry sequence above
  // (depth check, call accounting, register-file image) and the exit below
  // (stack-pointer restore, trap propagation) are shared with the decoded
  // engine verbatim, so only the dispatch loop differs — and the compiled
  // loop keeps the same books (see jit/JitAbi.h). Compiled code repeats
  // this entry sequence itself when it calls compiled code. While a
  // LayoutObserver is bound every frame runs decoded, so compiled code
  // never has to make the observer's callbacks.
  if (Jit && !TheObserver) {
    if (JitFn Fn = Jit->onCall(DF)) {
      SimMemory::JitStackView SV = Memory.jitStackView();
      JitContext Ctx;
      Ctx.Interp = this;
      Ctx.DF = &DF;
      Ctx.Result = &Result;
      Ctx.Depth = Depth;
      Ctx.MaxDepth = Opts.MaxCallDepth;
      Ctx.CallCount = &CallCount;
      Ctx.FrameBytes = FrameSlots * sizeof(uint64_t);
      Ctx.FuelLeft = &FuelLeft;
      Ctx.StackHost = SV.Host;
      Ctx.StackTouchedLo = SV.TouchedLo;
      Ctx.StackTouchedHi = SV.TouchedHi;
      Ctx.RODataHost = Memory.jitRODataHost();
      Ctx.StackPointer = &StackPointer;
      Ctx.StackLowWater = &StackLowWater;
      Ctx.Chain = Chain;
      uint64_t Trapped = Fn(&Ctx, Regs);
      StackPointer = SavedStackPointer;
      return Trapped ? 0 : Ctx.RetValue;
    }
  }

  size_t IP = 0;
  while (chargeFuel(*F, Result)) {
    assert(IP < DF.Insts.size() && "fell off the decoded instruction array");
    const DecodedInst &DI = DF.Insts[IP++];
    switch (execInlined(DF, DI, Regs, Depth, Result, IP)) {
    case ExecStatus::Next:
      continue;
    case ExecStatus::Return:
      StackPointer = SavedStackPointer;
      return DI.Op == DecodedOp::Ret ? Regs[DI.A] : 0;
    case ExecStatus::Trap:
      break;
    }
    break;
  }

  StackPointer = SavedStackPointer;
  return 0;
}
