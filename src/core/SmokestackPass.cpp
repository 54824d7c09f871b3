//===- core/SmokestackPass.cpp - Runtime stack-layout randomization --------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/SmokestackPass.h"

#include "ir/IRBuilder.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>

using namespace smokestack;

namespace {

/// Per-function plan computed before any IR is touched.
struct FunctionPlan {
  Function *F = nullptr;
  std::vector<AllocaInst *> Allocas;
  AllocationSignature Sig;
  unsigned TableId = 0;
  uint64_t FunctionId = 0;
};

/// Collects the permutable slot list of \p F (static allocas plus, when id
/// checks are enabled, the identifier slot appended last).
std::vector<AllocationSlot> collectSlots(const std::vector<AllocaInst *> &As,
                                         bool WithIdSlot) {
  std::vector<AllocationSlot> Slots;
  Slots.reserve(As.size() + 1);
  for (const AllocaInst *A : As)
    Slots.push_back({A->getStaticSize(), A->getAlign(), A->getName()});
  if (WithIdSlot)
    Slots.push_back({8, 8, "__ss_fnid"});
  return Slots;
}

/// True when every permutation of \p Slots fits the P-BOX's 32-bit slot
/// offsets and frame sizes. The bound is the worst case of any order: each
/// slot padded by its full alignment, then the frame rounded up to 16.
bool frameFitsPBox(const std::vector<AllocationSlot> &Slots) {
  uint64_t Worst = 15;
  for (const AllocationSlot &S : Slots)
    if (__builtin_add_overflow(Worst, S.Size, &Worst) ||
        __builtin_add_overflow(Worst, S.Align - 1, &Worst))
      return false;
  return Worst < (uint64_t(1) << 32);
}

} // namespace

bool SmokestackPass::runOnModule(Module &M) {
  // Phase 1: plan. Assign P-BOX tables for all functions before rewriting
  // any IR, in descending allocation-count order so the round-up sharing
  // optimization sees the bigger tables first.
  std::vector<FunctionPlan> Plans;
  for (const auto &F : M) {
    if (F->isDeclaration())
      continue;
    FunctionPlan Plan;
    Plan.F = F.get();
    Plan.Allocas = F->getStaticAllocas();
    // A frame the P-BOX cannot address would be silently truncated mod
    // 2^32; leave its static allocas as they are instead.
    if (!Plan.Allocas.empty() &&
        !frameFitsPBox(collectSlots(Plan.Allocas, Opts.FunctionIdChecks))) {
      Plan.Allocas.clear();
      ++FramesTooLarge;
    }
    if (Plan.Allocas.empty() && F->getVLAAllocas().empty())
      continue;
    Plans.push_back(std::move(Plan));
  }
  if (Plans.empty())
    return false;

  std::vector<FunctionPlan *> BySize;
  for (FunctionPlan &Plan : Plans)
    if (!Plan.Allocas.empty())
      BySize.push_back(&Plan);
  std::stable_sort(BySize.begin(), BySize.end(),
                   [](const FunctionPlan *A, const FunctionPlan *B) {
                     return A->Allocas.size() > B->Allocas.size();
                   });
  for (FunctionPlan *Plan : BySize) {
    std::vector<AllocationSlot> Slots =
        collectSlots(Plan->Allocas, Opts.FunctionIdChecks);
    Plan->TableId = Box.assignTable(Slots, Plan->Sig);
    Plan->FunctionId = NextFunctionId++;
  }

  // Table byte offsets within the (future) global: prefix sums.
  TableOffsets.clear();
  uint64_t Offset = 0;
  for (size_t I = 0; I != Box.numTables(); ++I) {
    TableOffsets.push_back(Offset);
    Offset += Box.table(static_cast<unsigned>(I)).byteSize();
  }

  // Phase 2: emit the P-BOX global (contents are final), then rewrite each
  // function against it.
  emitPBoxGlobal(M);
  for (FunctionPlan &Plan : Plans) {
    if (!Plan.Allocas.empty()) {
      Plan.F->setAttribute("smokestack.table", Plan.TableId);
      Plan.F->setAttribute("smokestack.fid", Plan.FunctionId);
      instrumentWithPlan(M, Plan.F, Plan.Allocas, Plan.Sig, Plan.TableId,
                         Plan.FunctionId);
      ++Instrumented;
    }
    if (Opts.RandomizeVLAs)
      randomizeVLAs(*Plan.F, M);
  }
  return true;
}

void SmokestackPass::emitPBoxGlobal(Module &M) {
  std::vector<uint64_t> Offsets;
  std::vector<uint8_t> Blob = Box.serialize(Offsets);
  assert(Offsets == TableOffsets && "offset bookkeeping diverged");
  if (Blob.empty())
    Blob.push_back(0); // degenerate but keeps the global well-formed
  Type *ArrTy = M.getContext().getArrayTy(M.getContext().getInt8Ty(),
                                          Blob.size());
  assert(!M.getGlobal(PBoxGlobalName) && "P-BOX already emitted");
  M.createGlobal(PBoxGlobalName, ArrTy, std::move(Blob), /*ReadOnly=*/true);
}

void SmokestackPass::instrumentWithPlan(Module &M, Function *F,
                                        const std::vector<AllocaInst *> &Allocas,
                                        const AllocationSignature &Sig,
                                        unsigned TableId,
                                        uint64_t FunctionId) {
  const PBoxTable &Table = Box.table(TableId);
  GlobalVariable *PBoxGlobal = M.getGlobal(PBoxGlobalName);
  assert(PBoxGlobal && "P-BOX global must exist before instrumentation");
  IRBuilder B(M);
  Function *RandFn =
      M.getOrInsertDeclaration("smokestack.rand", B.i64(), {});
  Function *TrapFn =
      M.getOrInsertDeclaration("smokestack.trap", B.voidTy(), {B.i64()});

  BasicBlock *OldEntry = F->getEntryBlock();
  BasicBlock *Entry = F->insertBlockAtFront("ss.entry");
  B.setInsertPoint(Entry);

  // Frame slab sized for the worst permutation of the (shared) table.
  uint64_t FrameAlign = 16;
  for (const AllocaInst *A : Allocas)
    FrameAlign = std::max(FrameAlign, A->getAlign());
  AllocaInst *Frame =
      B.alloca_(B.getContext().getArrayTy(B.i8(), Table.frameSize()),
                "ss.frame", FrameAlign);

  // Random permutation selection. With the power-of-two optimization the
  // modulo is a single mask.
  Value *Rand = B.call(RandFn, {}, "ss.rand");
  Value *Row;
  if (Table.rowMask())
    Row = B.and_(Rand, B.constI64(Table.rowMask()), "ss.row");
  else
    Row = B.urem(Rand, B.constI64(Table.numRows()), "ss.row");
  Value *RowOff = B.mul(Row, B.constI64(Table.rowStride()), "ss.rowoff");

  uint64_t TableBase = TableOffsets[TableId];
  const std::vector<unsigned> &Canon = Sig.originalToCanonical();

  // Rebind every alloca to its slice of the frame for this invocation.
  for (size_t I = 0; I != Allocas.size(); ++I) {
    AllocaInst *Orig = Allocas[I];
    int64_t ColOffset =
        static_cast<int64_t>(TableBase + uint64_t(Canon[I]) * 4);
    Value *OffPtr = B.gep(PBoxGlobal, RowOff, 1, ColOffset,
                          "ss.offp." + Orig->getName());
    Value *Off32 = B.load(B.i32(), OffPtr, "ss.off." + Orig->getName());
    Value *Off = B.zext(B.i64(), Off32);
    Value *Slice = B.gep(Frame, Off, 1, 0, Orig->getName() + ".ss");
    for (const auto &Block : *F)
      for (const auto &Inst : *Block)
        Inst->replaceUsesOfWith(Orig, Slice);
  }

  Value *IdPtr = nullptr;
  if (Opts.FunctionIdChecks) {
    unsigned IdCol = Canon.back(); // the appended __ss_fnid slot
    Value *OffPtr =
        B.gep(PBoxGlobal, RowOff, 1,
              static_cast<int64_t>(TableBase + uint64_t(IdCol) * 4),
              "ss.offp.fnid");
    Value *Off = B.zext(B.i64(), B.load(B.i32(), OffPtr, "ss.off.fnid"));
    // Named with the ".ss" slice convention so the disclosure channel sees
    // the tag slot too — an attacker reading the frame would.
    IdPtr = B.gep(Frame, Off, 1, 0, "__ss_fnid.ss");
    // Tag = FID xor R. R never leaves the register file, so disclosing the
    // tag in memory reveals nothing about future invocations.
    Value *Tag = B.xor_(B.constI64(FunctionId), Rand, "ss.tag");
    B.store(Tag, IdPtr);
  }
  B.br(OldEntry);

  // Erase the original allocas (all uses were rebound above).
  for (AllocaInst *Orig : Allocas)
    OldEntry->erase(OldEntry->indexOf(Orig));

  if (!Opts.FunctionIdChecks)
    return;

  // Epilogue checks: every return first re-derives the function id from the
  // tag; a corrupted tag (e.g. by a linear overflow sweeping the frame)
  // diverts to the trap block.
  BasicBlock *TrapBlock = F->createBlock("ss.trap");
  {
    IRBuilder TB(M);
    TB.setInsertPoint(TrapBlock);
    TB.call(TrapFn, {TB.constI64(1)});
    TB.unreachable_();
  }

  // Collect return blocks first; rewriting adds blocks.
  std::vector<BasicBlock *> RetBlocks;
  for (const auto &Block : *F)
    if (Block.get() != TrapBlock && Block->getTerminator() &&
        isa<RetInst>(Block->getTerminator()))
      RetBlocks.push_back(Block.get());

  unsigned RetIndex = 0;
  for (BasicBlock *Block : RetBlocks) {
    auto *Ret = cast<RetInst>(Block->getTerminator());
    Value *RetValue = Ret->getReturnValue();
    Block->erase(Block->indexOf(Ret));

    IRBuilder EB(M);
    BasicBlock *Cont =
        F->createBlock("ss.ret" + std::to_string(RetIndex++));
    EB.setInsertPoint(Block);
    Value *Tag = EB.load(B.i64(), IdPtr, "ss.tag.check");
    Value *Orig = EB.xor_(Tag, Rand, "ss.id.check");
    Value *Ok = EB.icmp(ICmpInst::Predicate::EQ, Orig,
                        EB.constI64(FunctionId), "ss.ok");
    EB.condBr(Ok, Cont, TrapBlock);
    EB.setInsertPoint(Cont);
    EB.ret(RetValue);
  }
}

void SmokestackPass::randomizeVLAs(Function &F, Module &M) {
  IRBuilder B(M);
  Function *RandFn = M.getOrInsertDeclaration("smokestack.rand", B.i64(), {});
  for (const auto &Block : F) {
    // Walk by index; insertions shift subsequent elements.
    for (size_t I = 0; I < Block->size(); ++I) {
      auto *VLA = dyn_cast<AllocaInst>(Block->at(I));
      if (!VLA || !VLA->isVLA() || VLA->getName().rfind("ss.vla", 0) == 0)
        continue;
      // Insert: r = rand(); sz = r & mask; pad = alloca i8, count sz.
      auto RandCall = std::make_unique<CallInst>(
          B.i64(), RandFn, std::vector<Value *>{}, "ss.vla.r");
      Value *RandVal = RandCall.get();
      auto Mask = std::make_unique<BinaryInst>(
          BinaryInst::BinOp::And, B.i64(), RandVal,
          M.getConstantInt(B.i64(), Opts.VlaPadMask), "ss.vla.sz");
      Value *SizeVal = Mask.get();
      auto Pad = std::make_unique<AllocaInst>(B.ptr(), B.i8(), SizeVal,
                                              "ss.vla.pad");
      Block->insertAt(I, std::move(RandCall));
      Block->insertAt(I + 1, std::move(Mask));
      Block->insertAt(I + 2, std::move(Pad));
      I += 3; // skip past the three inserted instructions to the VLA itself
    }
  }
}
