//===- ir/Verifier.cpp - IR well-formedness checks -------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Module.h"
#include "support/Align.h"
#include "support/Casting.h"
#include "support/Format.h"

#include <cstdint>
#include <set>

using namespace smokestack;

namespace {

/// Collects errors for one function.
class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, std::vector<std::string> *Errors)
      : F(F), Errors(Errors) {}

  bool run();

private:
  void error(const std::string &Message) {
    Valid = false;
    if (Errors)
      Errors->push_back(
          formatString("%s: %s", F.getName().c_str(), Message.c_str()));
  }

  void checkBlock(const BasicBlock &Block);
  void checkInstruction(const BasicBlock &Block, const Instruction &Inst);
  void checkOperandsVisible(const BasicBlock &Block, const Instruction &Inst);

  const Function &F;
  std::vector<std::string> *Errors;
  std::set<const BasicBlock *> KnownBlocks;
  std::set<const Value *> DefinedValues;
  bool Valid = true;
};

bool FunctionVerifier::run() {
  if (F.isDeclaration())
    return true;
  if (F.getNumBlocks() == 0) {
    error("function definition has no blocks");
    return false;
  }

  for (const auto &Block : F)
    KnownBlocks.insert(Block.get());
  for (unsigned I = 0, E = F.getNumArgs(); I != E; ++I)
    DefinedValues.insert(F.getArg(I));

  // Mini-IR has no phis, and the builders emit straight-line dominance, so a
  // simple "defined somewhere in the function" check catches the dangling-
  // operand bugs passes could introduce. Collect definitions first.
  for (const auto &Block : F)
    for (const auto &Inst : *Block)
      DefinedValues.insert(Inst.get());

  for (const auto &Block : F)
    checkBlock(*Block);
  return Valid;
}

void FunctionVerifier::checkBlock(const BasicBlock &Block) {
  if (Block.empty()) {
    error("block '" + Block.getName() + "' is empty");
    return;
  }
  if (!Block.getTerminator())
    error("block '" + Block.getName() + "' lacks a terminator");
  for (size_t I = 0, E = Block.size(); I != E; ++I) {
    const Instruction *Inst = Block.at(I);
    if (Inst->isTerminator() && I + 1 != E)
      error("terminator in the middle of block '" + Block.getName() + "'");
    checkInstruction(Block, *Inst);
  }
}

void FunctionVerifier::checkOperandsVisible(const BasicBlock &Block,
                                            const Instruction &Inst) {
  for (unsigned I = 0, E = Inst.getNumOperands(); I != E; ++I) {
    const Value *Op = Inst.getOperand(I);
    if (!Op) {
      error(formatString("null operand %u of '%s' in block '%s'", I,
                         Inst.getOpcodeName(), Block.getName().c_str()));
      continue;
    }
    if (isa<ConstantInt>(Op) || isa<ConstantFP>(Op) ||
        isa<GlobalVariable>(Op))
      continue;
    if (!DefinedValues.count(Op))
      error(formatString("operand '%s' of '%s' is not defined in function",
                         Op->getName().c_str(), Inst.getOpcodeName()));
  }
}

void FunctionVerifier::checkInstruction(const BasicBlock &Block,
                                        const Instruction &Inst) {
  checkOperandsVisible(Block, Inst);

  switch (Inst.getOpcode()) {
  case Instruction::Opcode::Store: {
    const auto &Store = cast<StoreInst>(Inst);
    if (!Store.getPointer()->getType()->isPointer())
      error("store pointer operand is not of pointer type");
    break;
  }
  case Instruction::Opcode::Load:
    if (!cast<LoadInst>(Inst).getPointer()->getType()->isPointer())
      error("load pointer operand is not of pointer type");
    if (Inst.getType()->isVoid() || Inst.getType()->isAggregate())
      error("load must produce a scalar value");
    break;
  case Instruction::Opcode::Gep: {
    const auto &Gep = cast<GepInst>(Inst);
    if (!Gep.getBase()->getType()->isPointer())
      error("gep base is not of pointer type");
    // The engines decode an index scale into 32 bits.
    if (Gep.getIndex() && Gep.getScale() > UINT32_MAX)
      error(formatString("gep scale %llu does not fit in 32 bits",
                         static_cast<unsigned long long>(Gep.getScale())));
    break;
  }
  case Instruction::Opcode::BinOp: {
    const auto &Bin = cast<BinaryInst>(Inst);
    if (Bin.getLHS()->getType() != Bin.getRHS()->getType())
      error(formatString("binop '%s' operand types differ",
                         Bin.getBinOpName()));
    break;
  }
  case Instruction::Opcode::ICmp: {
    const auto &Cmp = cast<ICmpInst>(Inst);
    if (Cmp.getLHS()->getType() != Cmp.getRHS()->getType())
      error("icmp operand types differ");
    break;
  }
  case Instruction::Opcode::Br: {
    const auto &Br = cast<BranchInst>(Inst);
    if (!KnownBlocks.count(Br.getTrueTarget()))
      error("branch target not in function");
    if (Br.isConditional() && !KnownBlocks.count(Br.getFalseTarget()))
      error("false branch target not in function");
    break;
  }
  case Instruction::Opcode::Call: {
    const auto &Call = cast<CallInst>(Inst);
    const Function *Callee = Call.getCallee();
    if (!Callee) {
      error("call with null callee");
      break;
    }
    if (!Callee->isVarArg() && Call.getNumArgs() != Callee->getNumArgs())
      error(formatString("call to '%s' passes %u args, expected %u",
                         Callee->getName().c_str(), Call.getNumArgs(),
                         Callee->getNumArgs()));
    break;
  }
  case Instruction::Opcode::Ret: {
    const auto &Ret = cast<RetInst>(Inst);
    bool HasValue = Ret.getReturnValue() != nullptr;
    bool WantsValue = !F.getReturnType()->isVoid();
    if (HasValue != WantsValue)
      error("return value presence does not match function return type");
    break;
  }
  case Instruction::Opcode::Alloca: {
    const auto &Alloca = cast<AllocaInst>(Inst);
    if (Alloca.getAllocatedType()->isVoid())
      error("alloca of void type");
    // Frame layout rounds offsets with power-of-two mask arithmetic.
    if (!isPowerOf2(Alloca.getAlign()))
      error(formatString("alloca alignment %llu is not a power of two",
                         static_cast<unsigned long long>(Alloca.getAlign())));
    break;
  }
  case Instruction::Opcode::Cast:
  case Instruction::Opcode::Select:
  case Instruction::Opcode::Unreachable:
    break;
  }
}

} // namespace

bool smokestack::verifyFunction(const Function &F,
                                std::vector<std::string> *Errors) {
  return FunctionVerifier(F, Errors).run();
}

bool smokestack::verifyModule(const Module &M,
                              std::vector<std::string> *Errors) {
  bool Valid = true;
  for (const auto &F : M)
    Valid &= verifyFunction(*F, Errors);
  return Valid;
}
