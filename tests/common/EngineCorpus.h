//===- tests/common/EngineCorpus.h - Engine test corpus ---------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-written part of the corpus the engine tests replay: every
/// zero-argument definition of the shipped examples/*.ir modules, and one
/// module per trap scenario whose `main` raises that trap. The decoded
/// engine checks it against a frozen table (vm/DecodedDifferentialTest),
/// the JIT against the decoded engine (jit/JitDifferentialTest); the
/// random part is RandomProgramGen.h.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_TESTS_COMMON_ENGINECORPUS_H
#define SMOKESTACK_TESTS_COMMON_ENGINECORPUS_H

#include "core/SmokestackPass.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace smokestack {

/// Calls \p Visit(M, FunctionName, FileName) for every zero-argument
/// definition of every examples/*.ir module (SMOKESTACK_EXAMPLES_DIR),
/// hardened by SmokestackPass first when \p Hardened. Returns how many
/// functions were visited; a module that fails to parse or verify is
/// reported as a test failure and skipped.
template <typename VisitFn>
unsigned forEachExampleFunction(bool Hardened, VisitFn Visit) {
  unsigned Visited = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SMOKESTACK_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ir")
      continue;
    std::string File = Entry.path().filename().string();
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ParseResult Parsed = parseModule(Buf.str(), File);
    EXPECT_TRUE(Parsed.ok()) << File << ": " << Parsed.Error;
    if (!Parsed.ok())
      continue;
    Module &M = *Parsed.M;
    if (Hardened) {
      PassManager PM;
      PM.addPass(std::make_unique<SmokestackPass>());
      PM.run(M);
    }
    EXPECT_TRUE(verifyModule(M)) << File;
    for (size_t I = 0, E = M.getNumFunctions(); I != E; ++I) {
      Function *F = M.getFunctionAt(I);
      if (F->isDeclaration() || F->getNumArgs() != 0)
        continue;
      Visit(M, F->getName(), File);
      ++Visited;
    }
  }
  return Visited;
}

/// main(): 7 divided by a zero loaded from the stack.
inline void buildDivisionByZero(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Zero = B.alloca_(B.i64(), "z");
  B.store(B.constI64(0), Zero);
  B.ret(B.udiv(B.constI64(7), B.load(B.i64(), Zero)));
}

/// main(): a load from address 64, outside every segment.
inline void buildUnmappedAccess(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Value *Bad = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(), B.constI64(64));
  B.ret(B.load(B.i64(), Bad));
}

/// main(): an empty endless loop (OutOfFuel under any budget).
inline void buildEndlessLoop(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  B.setInsertPoint(Entry);
  B.br(Loop);
  B.setInsertPoint(Loop);
  B.br(Loop);
}

/// main(): a VLA of 2^62 eight-byte elements, whose byte count overflows
/// 64 bits; it must trap StackOverflow instead of wrapping to a tiny
/// allocation.
inline void buildVlaSizeOverflow(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *CountSlot = B.alloca_(B.i64(), "n");
  B.store(B.constI64(uint64_t(1) << 62), CountSlot);
  AllocaInst *VLA = B.allocaVLA(B.i64(), B.load(B.i64(), CountSlot), "vla");
  B.store(B.constI64(1), VLA);
  B.ret(B.constI64(0));
}

/// main(): unreachable.
inline void buildUnreachable(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.unreachable_();
}

/// main(): calls itself until the call-depth limit.
inline void buildUnboundedRecursion(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.call(F, {}, "again"));
}

/// main(): calls a declaration no builtin implements.
inline void buildUnknownBuiltinCall(Module &M) {
  IRBuilder B(M);
  Function *Mystery = M.getOrInsertDeclaration("no.such.builtin", B.i64(), {});
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.call(Mystery, {}));
}

/// main(): get_input into a 16-byte buffer, print_i64 the byte count, and
/// return the count plus the buffer's first eight bytes — pins output and
/// input-queue consumption through the builtins.
inline void buildInputAndPrint(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr(), B.i64()});
  Function *Print =
      M.getOrInsertDeclaration("print_i64", B.voidTy(), {B.i64()});
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "buf");
  Value *Got = B.call(GetInput, {Buf, B.constI64(16)});
  B.call(Print, {Got});
  B.ret(B.add(Got, B.load(B.i64(), Buf)));
}

} // namespace smokestack

#endif // SMOKESTACK_TESTS_COMMON_ENGINECORPUS_H
