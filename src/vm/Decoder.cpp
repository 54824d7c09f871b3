//===- vm/Decoder.cpp - IR-to-DecodedFunction lowering ---------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Decoder.h"

#include "ir/Module.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

using namespace smokestack;

namespace {

Statistic NumFunctionsDecoded("vm.decoded-functions",
                              "Functions lowered to decoded form");
Statistic NumInstsDecoded("vm.decoded-insts",
                          "IR instructions lowered to DecodedInsts");
Statistic NumConstPoolSlots("vm.decoded-const-slots",
                            "Constant-pool slots materialized by the decoder");

/// Byte width of a scalar slot of type \p Ty (mirrors the interpreter).
uint64_t scalarWidth(const Type *Ty) {
  assert(!Ty->isAggregate() && !Ty->isVoid() && "not a scalar type");
  return Ty->sizeInBytes();
}

/// Masks \p Bits to the low \p Width bytes (mirrors the interpreter).
uint64_t maskToWidth(uint64_t Bits, uint64_t Width) {
  if (Width >= 8)
    return Bits;
  return Bits & ((uint64_t(1) << (Width * 8)) - 1);
}

/// Encodes a double into a register slot of IR type \p Ty (mirrors the
/// interpreter's fpToSlot; floats occupy the low 32 bits).
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

/// Mask width the engines apply to a produced value of type \p Ty:
/// the scalar width for integers/pointers, 0 (no mask) for floating point.
uint8_t maskWidthFor(const Type *Ty) {
  if (Ty->isFloatingPoint())
    return 0;
  return static_cast<uint8_t>(scalarWidth(Ty));
}

/// FP slot width (4 = float, 8 = double) of \p Ty.
uint8_t fpWidthFor(const Type *Ty) {
  assert(Ty->isFloatingPoint() && "not a floating-point type");
  return Ty->getKind() == Type::Kind::Float ? 4 : 8;
}

/// DecodedFunction::ReadFirstSlots: a forward must-analysis over the
/// instruction array's control flow. A slot is "written" at a point when
/// every path from entry to it passes its defining instruction (arguments
/// are written at entry); any read of a result slot that is not written
/// there is recorded. Unreachable code never runs, so its reads are not
/// recorded. Functions too large for the bit sets keep every slot.
std::vector<uint32_t> readFirstSlots(const DecodedFunction &DF) {
  const uint32_t NumArgs = static_cast<uint32_t>(DF.ArgWidths.size());
  const uint32_t Tracked = DF.NumMutable - NumArgs;
  const uint32_t Size = static_cast<uint32_t>(DF.Insts.size());
  std::vector<uint32_t> Out;
  if (Tracked == 0)
    return Out;
  auto Every = [&] {
    for (uint32_t S = NumArgs; S != DF.NumMutable; ++S)
      Out.push_back(S);
    return Out;
  };

  // Blocks start at 0, at branch targets and after terminators. (A
  // verified function has no branch out of its instruction array.)
  std::vector<bool> Leader(Size + 1, false);
  Leader[0] = true;
  for (uint32_t IP = 0; IP != Size; ++IP) {
    const DecodedInst &DI = DF.Insts[IP];
    switch (DI.Op) {
    case DecodedOp::Br:
      if (DI.A >= Size)
        return Every();
      Leader[DI.A] = true;
      break;
    case DecodedOp::CondBr:
      if (DI.B >= Size || DI.C >= Size)
        return Every();
      Leader[DI.B] = Leader[DI.C] = true;
      break;
    case DecodedOp::Ret:
    case DecodedOp::RetVoid:
    case DecodedOp::Unreachable:
      break;
    default:
      continue;
    }
    Leader[IP + 1] = true;
  }
  std::vector<uint32_t> BlockStart;
  std::vector<uint32_t> BlockOf(Size);
  for (uint32_t IP = 0; IP != Size; ++IP) {
    if (Leader[IP])
      BlockStart.push_back(IP);
    BlockOf[IP] = static_cast<uint32_t>(BlockStart.size() - 1);
  }
  const size_t NumBlocks = BlockStart.size();
  const size_t Words = (Tracked + 63) / 64;
  if (Size == 0 || NumBlocks * Words > (size_t(1) << 20))
    return Every();

  // In[B]: the slots written on entry to block B. The entry block starts
  // with none; every other block starts at "all" (unreached so far) and
  // only shrinks, so the iteration terminates at the greatest fixed point.
  std::vector<uint64_t> In(NumBlocks * Words, ~uint64_t(0));
  std::fill(In.begin(), In.begin() + static_cast<ptrdiff_t>(Words), 0);
  std::vector<uint64_t> Cur(Words);
  auto Write = [&](uint32_t Slot) {
    if (Slot >= NumArgs && Slot < DF.NumMutable)
      Cur[(Slot - NumArgs) / 64] |= uint64_t(1) << ((Slot - NumArgs) % 64);
  };
  auto Written = [&](uint32_t Slot) {
    return Slot < NumArgs || Slot >= DF.NumMutable ||
           (Cur[(Slot - NumArgs) / 64] >> ((Slot - NumArgs) % 64)) & 1;
  };
  // Runs block B from In[B], calling OnRead for each read; returns the
  // block's successors (at most two).
  auto RunBlock = [&](size_t B, auto OnRead, uint32_t Succ[2]) {
    std::copy_n(In.begin() + static_cast<ptrdiff_t>(B * Words), Words,
                Cur.begin());
    uint32_t End = B + 1 == NumBlocks ? Size : BlockStart[B + 1];
    for (uint32_t IP = BlockStart[B]; IP != End; ++IP) {
      const DecodedInst &DI = DF.Insts[IP];
      forEachRead(DF, DI, OnRead);
      if (DI.Dest != DecodedInst::NoReg)
        Write(DI.Dest);
    }
    const DecodedInst &Last = DF.Insts[End - 1];
    switch (Last.Op) {
    case DecodedOp::Br:
      Succ[0] = Last.A;
      return 1u;
    case DecodedOp::CondBr:
      Succ[0] = Last.B;
      Succ[1] = Last.C;
      return 2u;
    case DecodedOp::Ret:
    case DecodedOp::RetVoid:
    case DecodedOp::Unreachable:
      return 0u;
    default:
      Succ[0] = End; // falls through (the verifier forbids it at the end)
      return End < Size ? 1u : 0u;
    }
  };

  std::vector<bool> Dirty(NumBlocks, false);
  Dirty[0] = true;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t B = 0; B != NumBlocks; ++B) {
      if (!Dirty[B])
        continue;
      Dirty[B] = false;
      uint32_t Succ[2];
      unsigned N = RunBlock(B, [](uint32_t) {}, Succ);
      for (unsigned I = 0; I != N; ++I) {
        size_t S = BlockOf[Succ[I]];
        bool Narrowed = false;
        for (size_t W = 0; W != Words; ++W) {
          uint64_t &Word = In[S * Words + W];
          uint64_t Meet = Word & Cur[W];
          Narrowed |= Meet != Word;
          Word = Meet;
        }
        if (Narrowed && !Dirty[S]) {
          Dirty[S] = true;
          Changed = true;
        }
      }
    }
  }

  // A block no path reaches keeps In = "all" and records nothing.
  std::vector<bool> ReadFirst(Tracked, false);
  for (size_t B = 0; B != NumBlocks; ++B) {
    uint32_t Succ[2];
    RunBlock(
        B,
        [&](uint32_t Slot) {
          if (!Written(Slot))
            ReadFirst[Slot - NumArgs] = true;
        },
        Succ);
  }
  for (uint32_t S = 0; S != Tracked; ++S)
    if (ReadFirst[S])
      Out.push_back(NumArgs + S);
  return Out;
}

/// Builds the register numbering and constant pool for one function.
class FunctionDecoder {
public:
  FunctionDecoder(
      Function &F,
      const std::unordered_map<std::string, uint64_t> &GlobalAddresses,
      uint32_t Index)
      : F(F), GlobalAddresses(GlobalAddresses), Index(Index) {}

  std::unique_ptr<DecodedFunction> decode();

private:
  uint32_t regOf(const Value *V);
  uint32_t poolSlot(uint64_t Bits);
  DecodedInst decodeInst(const Instruction *Inst);
  DecodedInst decodeBinOp(const BinaryInst *Bin);
  DecodedInst decodeCast(const CastInst *Cast);

  Function &F;
  const std::unordered_map<std::string, uint64_t> &GlobalAddresses;
  uint32_t Index;
  std::unique_ptr<DecodedFunction> DF;
  std::unordered_map<const Value *, uint32_t> RegIndex;
  std::unordered_map<uint64_t, uint32_t> PoolIndex;
  std::unordered_map<const BasicBlock *, uint32_t> BlockOffset;
};

uint32_t FunctionDecoder::poolSlot(uint64_t Bits) {
  auto It = PoolIndex.find(Bits);
  if (It != PoolIndex.end())
    return It->second;
  // Pool registers live after the mutable ones; NumSlots is finalized once
  // decoding completes.
  uint32_t Reg = DF->NumMutable + static_cast<uint32_t>(DF->ConstPool.size());
  DF->ConstPool.push_back(Bits);
  PoolIndex.emplace(Bits, Reg);
  return Reg;
}

uint32_t FunctionDecoder::regOf(const Value *V) {
  if (const auto *CI = dyn_cast<ConstantInt>(V))
    return poolSlot(maskToWidth(CI->getZExtValue(), scalarWidth(CI->getType())));
  if (const auto *CF = dyn_cast<ConstantFP>(V))
    return poolSlot(fpToSlot(CF->getValue(), CF->getType()));
  if (const auto *G = dyn_cast<GlobalVariable>(V)) {
    auto It = GlobalAddresses.find(G->getName());
    assert(It != GlobalAddresses.end() && "global not loaded before decode");
    return poolSlot(It->second);
  }
  auto It = RegIndex.find(V);
  assert(It != RegIndex.end() && "value has no register");
  return It->second;
}

DecodedInst FunctionDecoder::decodeBinOp(const BinaryInst *Bin) {
  DecodedInst DI;
  using BinOp = BinaryInst::BinOp;
  switch (Bin->getBinOp()) {
  case BinOp::Add:
    DI.Op = DecodedOp::Add;
    break;
  case BinOp::Sub:
    DI.Op = DecodedOp::Sub;
    break;
  case BinOp::Mul:
    DI.Op = DecodedOp::Mul;
    break;
  case BinOp::UDiv:
    DI.Op = DecodedOp::UDiv;
    break;
  case BinOp::SDiv:
    DI.Op = DecodedOp::SDiv;
    break;
  case BinOp::URem:
    DI.Op = DecodedOp::URem;
    break;
  case BinOp::SRem:
    DI.Op = DecodedOp::SRem;
    break;
  case BinOp::And:
    DI.Op = DecodedOp::And;
    break;
  case BinOp::Or:
    DI.Op = DecodedOp::Or;
    break;
  case BinOp::Xor:
    DI.Op = DecodedOp::Xor;
    break;
  case BinOp::Shl:
    DI.Op = DecodedOp::Shl;
    break;
  case BinOp::LShr:
    DI.Op = DecodedOp::LShr;
    break;
  case BinOp::AShr:
    DI.Op = DecodedOp::AShr;
    break;
  case BinOp::FAdd:
    DI.Op = DecodedOp::FAdd;
    break;
  case BinOp::FSub:
    DI.Op = DecodedOp::FSub;
    break;
  case BinOp::FMul:
    DI.Op = DecodedOp::FMul;
    break;
  case BinOp::FDiv:
    DI.Op = DecodedOp::FDiv;
    break;
  }
  const Type *Ty = Bin->getType();
  DI.Width = Ty->isFloatingPoint() ? fpWidthFor(Ty)
                                   : static_cast<uint8_t>(scalarWidth(Ty));
  DI.A = regOf(Bin->getLHS());
  DI.B = regOf(Bin->getRHS());
  return DI;
}

DecodedInst FunctionDecoder::decodeCast(const CastInst *Cast) {
  DecodedInst DI;
  const Type *SrcTy = Cast->getSource()->getType();
  const Type *DstTy = Cast->getType();
  DI.A = regOf(Cast->getSource());
  using CastOp = CastInst::CastOp;
  switch (Cast->getCastOp()) {
  case CastOp::Trunc:
  case CastOp::ZExt:
  case CastOp::Bitcast:
  case CastOp::PtrToInt:
  case CastOp::IntToPtr:
    DI.Op = DecodedOp::CastCopy;
    DI.Width = static_cast<uint8_t>(scalarWidth(DstTy));
    break;
  case CastOp::SExt:
    DI.Op = DecodedOp::CastSExt;
    DI.C = static_cast<uint32_t>(scalarWidth(SrcTy));
    DI.Width = static_cast<uint8_t>(scalarWidth(DstTy));
    break;
  case CastOp::FPToSI:
    DI.Op = DecodedOp::CastFPToSI;
    DI.C = fpWidthFor(SrcTy);
    DI.Width = static_cast<uint8_t>(scalarWidth(DstTy));
    break;
  case CastOp::SIToFP:
    DI.Op = DecodedOp::CastSIToFP;
    DI.C = static_cast<uint32_t>(scalarWidth(SrcTy));
    DI.Width = fpWidthFor(DstTy);
    break;
  case CastOp::FPExt:
  case CastOp::FPTrunc:
    DI.Op = DecodedOp::CastFPConvert;
    DI.C = fpWidthFor(SrcTy);
    DI.Width = fpWidthFor(DstTy);
    break;
  }
  return DI;
}

DecodedInst FunctionDecoder::decodeInst(const Instruction *Inst) {
  DecodedInst DI;
  switch (Inst->getOpcode()) {
  case Instruction::Opcode::Alloca: {
    const auto *Alloca = cast<AllocaInst>(Inst);
    if (Alloca->isVLA()) {
      DI.Op = DecodedOp::AllocaVLA;
      DI.A = regOf(Alloca->getCount());
    } else {
      DI.Op = DecodedOp::AllocaStatic;
    }
    DI.Src = Inst;
    break;
  }
  case Instruction::Opcode::Load: {
    const auto *Load = cast<LoadInst>(Inst);
    DI.Op = DecodedOp::Load;
    DI.A = regOf(Load->getPointer());
    DI.Width = static_cast<uint8_t>(scalarWidth(Load->getType()));
    break;
  }
  case Instruction::Opcode::Store: {
    const auto *Store = cast<StoreInst>(Inst);
    DI.Op = DecodedOp::Store;
    DI.A = regOf(Store->getStoredValue());
    DI.B = regOf(Store->getPointer());
    DI.Width =
        static_cast<uint8_t>(scalarWidth(Store->getStoredValue()->getType()));
    break;
  }
  case Instruction::Opcode::Gep: {
    const auto *Gep = cast<GepInst>(Inst);
    const std::string &Name = Gep->getName();
    bool Observed =
        Name.size() > 3 && Name.compare(Name.size() - 3, 3, ".ss") == 0;
    DI.A = regOf(Gep->getBase());
    DI.Imm = Gep->getConstOffset();
    if (const Value *Index = Gep->getIndex()) {
      assert(Gep->getScale() <= std::numeric_limits<uint32_t>::max() &&
             "gep scale exceeds decoded operand range");
      DI.Op = Observed ? DecodedOp::GepIndexObs : DecodedOp::GepIndex;
      DI.B = regOf(Index);
      DI.C = static_cast<uint32_t>(Gep->getScale());
    } else {
      DI.Op = Observed ? DecodedOp::GepConstObs : DecodedOp::GepConst;
    }
    if (Observed)
      DI.Src = Inst;
    break;
  }
  case Instruction::Opcode::BinOp:
    DI = decodeBinOp(cast<BinaryInst>(Inst));
    break;
  case Instruction::Opcode::ICmp: {
    const auto *Cmp = cast<ICmpInst>(Inst);
    const Type *OpTy = Cmp->getLHS()->getType();
    DI.Op = OpTy->isFloatingPoint() ? DecodedOp::ICmpFloat
                                    : DecodedOp::ICmpInt;
    DI.A = regOf(Cmp->getLHS());
    DI.B = regOf(Cmp->getRHS());
    DI.C = static_cast<uint32_t>(Cmp->getPredicate());
    DI.Width = OpTy->isFloatingPoint()
                   ? fpWidthFor(OpTy)
                   : static_cast<uint8_t>(scalarWidth(OpTy));
    break;
  }
  case Instruction::Opcode::Cast:
    DI = decodeCast(cast<CastInst>(Inst));
    break;
  case Instruction::Opcode::Select: {
    const auto *Sel = cast<SelectInst>(Inst);
    DI.Op = DecodedOp::Select;
    DI.A = regOf(Sel->getCondition());
    DI.B = regOf(Sel->getTrueValue());
    DI.C = regOf(Sel->getFalseValue());
    break;
  }
  case Instruction::Opcode::Br: {
    const auto *Br = cast<BranchInst>(Inst);
    if (Br->isConditional()) {
      DI.Op = DecodedOp::CondBr;
      DI.A = regOf(Br->getCondition());
      DI.B = BlockOffset.at(Br->getTrueTarget());
      DI.C = BlockOffset.at(Br->getFalseTarget());
    } else {
      DI.Op = DecodedOp::Br;
      DI.A = BlockOffset.at(Br->getTrueTarget());
    }
    break;
  }
  case Instruction::Opcode::Call: {
    const auto *Call = cast<CallInst>(Inst);
    DI.Op = DecodedOp::Call;
    DI.A = static_cast<uint32_t>(DF->CallSites.size());
    DecodedCallSite CS;
    CS.Callee = Call->getCallee();
    if (CS.Callee->isDeclaration())
      CS.Builtin = builtinIdFor(CS.Callee->getName());
    CS.ArgStart = static_cast<uint32_t>(DF->CallArgRegs.size());
    CS.NumArgs = Call->getNumArgs();
    for (unsigned I = 0, E = Call->getNumArgs(); I != E; ++I)
      DF->CallArgRegs.push_back(regOf(Call->getArg(I)));
    DF->CallSites.push_back(CS);
    DI.Width = Call->getType()->isVoid() ? 0 : maskWidthFor(Call->getType());
    break;
  }
  case Instruction::Opcode::Ret: {
    const auto *Ret = cast<RetInst>(Inst);
    if (const Value *RV = Ret->getReturnValue()) {
      DI.Op = DecodedOp::Ret;
      DI.A = regOf(RV);
    } else {
      DI.Op = DecodedOp::RetVoid;
    }
    break;
  }
  case Instruction::Opcode::Unreachable:
    DI.Op = DecodedOp::Unreachable;
    break;
  }
  if (!Inst->getType()->isVoid())
    DI.Dest = regOf(Inst);
  return DI;
}

std::unique_ptr<DecodedFunction> FunctionDecoder::decode() {
  assert(!F.isDeclaration() && "cannot decode a declaration");
  DF = std::make_unique<DecodedFunction>();
  DF->F = &F;
  DF->Index = Index;

  // Register numbering: arguments first, then value-producing instructions
  // in block order.
  for (unsigned I = 0, E = F.getNumArgs(); I != E; ++I) {
    RegIndex[F.getArg(I)] = DF->NumMutable++;
    DF->ArgWidths.push_back(maskWidthFor(F.getArg(I)->getType()));
  }
  uint32_t FlatOffset = 0;
  for (const auto &Block : F) {
    BlockOffset[Block.get()] = FlatOffset;
    FlatOffset += static_cast<uint32_t>(Block->size());
    for (const auto &Inst : *Block)
      if (!Inst->getType()->isVoid())
        RegIndex[Inst.get()] = DF->NumMutable++;
  }

  DF->Insts.reserve(FlatOffset);
  for (const auto &Block : F)
    for (const auto &Inst : *Block)
      DF->Insts.push_back(decodeInst(Inst.get()));

  DF->NumSlots = DF->NumMutable + static_cast<uint32_t>(DF->ConstPool.size());
  DF->ReadFirstSlots = readFirstSlots(*DF);
  ++NumFunctionsDecoded;
  NumInstsDecoded += DF->Insts.size();
  NumConstPoolSlots += DF->ConstPool.size();
  return std::move(DF);
}

} // namespace

std::unique_ptr<DecodedFunction> smokestack::decodeFunction(
    Function &F,
    const std::unordered_map<std::string, uint64_t> &GlobalAddresses,
    uint32_t Index) {
  return FunctionDecoder(F, GlobalAddresses, Index).decode();
}
