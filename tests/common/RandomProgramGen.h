//===- tests/common/RandomProgramGen.h - Random Mini-IR programs -*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared generator of random (but memory-safe) Mini-IR programs with
/// stack-heavy dataflow, used by the instrumentation differential fuzzer,
/// the JIT differential test and the decoded engine's frozen-table test.
/// Same seed, same program — byte for byte — so independent modules built
/// from one seed can be compared across passes and engines. The frozen
/// table (tests/vm/DecodedDifferentialTest.cpp) records seeds 1-40, so a
/// change to what a seed generates invalidates its rows.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_TESTS_COMMON_RANDOMPROGRAMGEN_H
#define SMOKESTACK_TESTS_COMMON_RANDOMPROGRAMGEN_H

#include "ir/IRBuilder.h"
#include "support/SplitMix64.h"

#include <string>
#include <vector>

namespace smokestack {

/// Generates one random function `main` with 2..6 locals (scalars and
/// byte buffers), a bounded loop, and a body of random in-bounds
/// loads/stores/arithmetic over them. All accesses are within the declared
/// objects, so baseline and hardened executions must agree bit for bit.
inline void buildRandomProgram(Module &M, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  struct Local {
    AllocaInst *Slot;
    bool IsBuffer;
    uint64_t Bytes;
  };
  std::vector<Local> Locals;
  unsigned NumLocals = 2 + Rng.nextBounded(5);
  for (unsigned I = 0; I != NumLocals; ++I) {
    if (Rng.nextBounded(3) == 0) {
      uint64_t Size = 8u << Rng.nextBounded(4); // 8..64 bytes
      AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), Size),
                                  "buf" + std::to_string(I));
      Locals.push_back({Buf, true, Size});
    } else {
      AllocaInst *Scalar = B.alloca_(B.i64(), "v" + std::to_string(I));
      Locals.push_back({Scalar, false, 8});
    }
  }
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *Idx = B.alloca_(B.i64(), "idx");
  // Sometimes add a VLA, exercising the pass's dynamic-padding path; it
  // joins the locals as a 16-byte buffer (count fixed so accesses stay in
  // bounds while the runtime treats the size as dynamic).
  if (Rng.nextBounded(2) == 0) {
    AllocaInst *VLA = B.allocaVLA(B.i8(), B.constI64(16), "vla");
    Locals.push_back({VLA, true, 16});
  }
  // Initialize everything deterministically.
  for (const Local &L : Locals) {
    if (L.IsBuffer) {
      for (uint64_t Off = 0; Off != L.Bytes; Off += 8)
        B.store(B.constI64(Seed * 31 + Off),
                B.gepConst(L.Slot, static_cast<int64_t>(Off)));
    } else {
      B.store(B.constI64(Seed ^ (Locals.size() * 7)), L.Slot);
    }
  }
  B.store(B.constI64(1), Acc);
  B.store(B.constI64(0), Idx);
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), Idx),
                  B.constI64(4 + Rng.nextBounded(8))),
           Body, Exit);

  B.setInsertPoint(Body);
  // Random body: 4..12 operations over the locals.
  unsigned Ops = 4 + Rng.nextBounded(9);
  for (unsigned Op = 0; Op != Ops; ++Op) {
    const Local &L = Locals[Rng.nextBounded(Locals.size())];
    Value *Addr;
    if (L.IsBuffer) {
      // In-bounds 8-byte-aligned slot of the buffer.
      uint64_t Off = 8 * Rng.nextBounded(L.Bytes / 8);
      Addr = B.gepConst(L.Slot, static_cast<int64_t>(Off));
    } else {
      Addr = L.Slot;
    }
    Value *AccV = B.load(B.i64(), Acc);
    switch (Rng.nextBounded(4)) {
    case 0: { // fold a load into the accumulator
      Value *V = B.load(B.i64(), Addr);
      B.store(B.add(B.mul(AccV, B.constI64(1099511628211ULL)),
                    B.xor_(V, B.constI64(Rng.next()))),
              Acc);
      break;
    }
    case 1: // overwrite the local from the accumulator
      B.store(B.xor_(AccV, B.constI64(Rng.next())), Addr);
      break;
    case 2: { // arithmetic shuffle
      Value *V = B.load(B.i64(), Addr);
      Value *Mixed = B.add(B.shl(V, B.constI64(1 + Rng.nextBounded(7))),
                           B.lshr(AccV, B.constI64(Rng.nextBounded(8))));
      B.store(Mixed, Addr);
      break;
    }
    default: { // compare-select
      Value *V = B.load(B.i64(), Addr);
      Value *Cmp = B.icmp(ICmpInst::Predicate::ULT, V, AccV);
      B.store(B.select(Cmp, B.add(AccV, V), B.sub(AccV, V)), Acc);
      break;
    }
    }
  }
  B.store(B.add(B.load(B.i64(), Idx), B.constI64(1)), Idx);
  B.br(Loop);

  B.setInsertPoint(Exit);
  // Fold every local into the result so layout bugs cannot hide.
  Value *Result = B.load(B.i64(), Acc);
  for (const Local &L : Locals) {
    Value *Addr = L.IsBuffer ? static_cast<Value *>(B.gepConst(L.Slot, 0))
                             : static_cast<Value *>(L.Slot);
    Result = B.add(B.mul(Result, B.constI64(3)), B.load(B.i64(), Addr));
  }
  B.ret(Result);
}

} // namespace smokestack

#endif // SMOKESTACK_TESTS_COMMON_RANDOMPROGRAMGEN_H
