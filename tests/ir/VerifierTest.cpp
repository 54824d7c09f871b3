//===- tests/ir/VerifierTest.cpp - Verifier tests ------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "defenses/Deploy.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace smokestack;

namespace {

bool hasErrorContaining(const std::vector<std::string> &Errors,
                        const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// What the smokestack-opt pipeline makes of a tests/tools module: parse,
/// verify, deploy \p Kind, run @main on the chosen engine. Errors holds
/// the verifier's complaints; the module ran only when it is empty.
struct PipelineRun {
  std::vector<std::string> Errors;
  ExecResult Result;
};

PipelineRun runThroughPipeline(const std::string &File, DefenseKind Kind,
                               bool Jit) {
  std::ifstream In(std::string(SMOKESTACK_TOOL_INPUTS_DIR) + "/" + File);
  std::ostringstream Text;
  Text << In.rdbuf();
  PipelineRun Run;
  ParseResult Parsed = parseModule(Text.str(), File);
  EXPECT_TRUE(Parsed.ok()) << File << ": " << Parsed.Error;
  if (!Parsed.ok() || !verifyModule(*Parsed.M, &Run.Errors))
    return Run;
  DeployedDefense D = deployDefense(*Parsed.M, Kind, /*BuildSeed=*/9);
  D.InterpOpts.UseJit = Jit;
  Interpreter VM(*Parsed.M, nullptr, D.InterpOpts);
  Run.Result = VM.run("main");
  return Run;
}

} // namespace

TEST(VerifierTest, ParsedHostileModulesFailUnderEveryDefenseAndEngine) {
  // Both modules parse. Unverified, `align 3` reaches the frame layout's
  // power-of-two mask arithmetic (an assert in a Debug build), and a gep
  // scale of 2^32 is narrowed to 0 by the engines' 32-bit decoded operand,
  // so the far store hits the buffer and @main returns 7.
  const std::pair<const char *, const char *> Hostile[] = {
      {"bad_align.ir", "alloca alignment 3 is not a power of two"},
      {"wide_gep_scale.ir", "gep scale 4294967296 does not fit in 32 bits"}};
  for (const auto &[File, Rule] : Hostile)
    for (DefenseKind Kind : allDefenseKinds())
      for (bool Jit : {false, true}) {
        SCOPED_TRACE(testing::Message() << File << " under "
                                        << defenseKindName(Kind)
                                        << (Jit ? ", JIT" : ", decoded"));
        PipelineRun Run = runThroughPipeline(File, Kind, Jit);
        EXPECT_TRUE(hasErrorContaining(Run.Errors, Rule))
            << "the module verified and ran: -> " << Run.Result.ReturnValue;
      }
}

TEST(VerifierTest, EmptyFunctionDefinitionIsInvalid) {
  Module M("test");
  IRBuilder B(M);
  M.createFunction("empty", B.voidTy(), {});
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "no blocks"));
}

TEST(VerifierTest, MissingTerminator) {
  Module M("test");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.alloca_(B.i32(), "x");
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "terminator"));
}

TEST(VerifierTest, DeclarationsAlwaysVerify) {
  Module M("test");
  IRBuilder B(M);
  M.getOrInsertDeclaration("snprintf", B.i32(), {}, /*IsVarArg=*/true);
  EXPECT_TRUE(verifyModule(M));
}

TEST(VerifierTest, BinopTypeMismatch) {
  Module M("test");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.add(B.constI32(1), B.constI64(2));
  B.ret();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "operand types differ"));
}

TEST(VerifierTest, ReturnValueMismatch) {
  Module M("test");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.i32(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(); // should return an i32
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "return value"));
}

TEST(VerifierTest, CallArgumentCount) {
  Module M("test");
  IRBuilder B(M);
  Function *Callee = M.createFunction("callee", B.voidTy(), {B.i32()});
  {
    IRBuilder CB(M);
    CB.setInsertPoint(Callee->createBlock("entry"));
    CB.ret();
  }
  Function *F = M.createFunction("caller", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.call(Callee, {});
  B.ret();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "passes 0 args"));
}

TEST(VerifierTest, VarArgCallsAcceptAnyCount) {
  Module M("test");
  IRBuilder B(M);
  Function *Printf = M.getOrInsertDeclaration("snprintf", B.i32(),
                                              {B.ptr(), B.i64()},
                                              /*IsVarArg=*/true);
  Function *F = M.createFunction("caller", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i8(), 8), "buf");
  B.call(Printf, {Buf, B.constI64(8), B.constI64(1), B.constI64(2)});
  B.ret();
  EXPECT_TRUE(verifyFunction(*F));
}

TEST(VerifierTest, StoreToNonPointer) {
  Module M("test");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.voidTy(), {B.i64()});
  B.setInsertPoint(F->createBlock("entry"));
  // Store through an i64, not a ptr.
  B.getInsertBlock()->append(std::make_unique<StoreInst>(
      B.voidTy(), B.constI32(0), F->getArg(0)));
  B.ret();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "store pointer operand"));
}

TEST(VerifierTest, TerminatorInMiddle) {
  Module M("test");
  IRBuilder B(M);
  Function *F = M.createFunction("f", B.voidTy(), {});
  BasicBlock *Entry = F->createBlock("entry");
  B.setInsertPoint(Entry);
  B.ret();
  B.ret();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(*F, &Errors));
  EXPECT_TRUE(hasErrorContaining(Errors, "middle"));
}
