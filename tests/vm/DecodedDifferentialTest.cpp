//===- tests/vm/DecodedDifferentialTest.cpp - Frozen-oracle engine test ---===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the decoded engine against a frozen reference table. Every row
/// was recorded from the tree-walking engine, an IR-level interpreter that
/// shared no code with the decoder, just before that engine was deleted;
/// the decoded engine matched it on every row at the time. A row pins the
/// trap kind, return value, Steps, callsExecuted() and an FNV-1a of
/// output() for:
///
///  - every zero-argument definition of examples/*.ir, plain and
///    Smokestack-hardened (AES-10 seeded with 0xD1FF),
///  - the DifferentialFuzzTest program corpus, seeds 1-40, plain and
///    hardened (seeded with Seed ^ 0xF022),
///  - handcrafted trap scenarios covering every trap kind the engine can
///    raise, including the VLA size-overflow fix.
///
/// The table is a reference that does not depend on the decoder, for this
/// corpus only: a new case needs its own row (a missing row fails), and
/// it cannot be recorded from an independent engine any more.
/// JitDifferentialTest keeps checking the JIT against the decoded engine.
///
//===----------------------------------------------------------------------===//

#include "common/EngineCorpus.h"
#include "common/RandomProgramGen.h"
#include "rng/AesCtr.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace smokestack;

namespace {

struct FrozenResult {
  const char *Case;
  TrapKind Trap;
  uint64_t ReturnValue;
  uint64_t Steps;
  uint64_t Calls;
  uint64_t OutputFnv;
};

// Cases are "<example>.ir:<function>", "fuzz:<seed>" and the scenario
// names below; "+hard" marks the Smokestack-hardened run.
// clang-format off
const FrozenResult Frozen[] = {
    {"listing1.ir:vuln", TrapKind::None, 0x0ULL, 5, 1, 0xcbf29ce484222325ULL},
    {"listing1.ir:driver", TrapKind::None, 0xdULL, 182, 9, 0xcbf29ce484222325ULL},
    {"spin.ir:spin", TrapKind::OutOfFuel, 0x0ULL, 200000000, 1, 0xcbf29ce484222325ULL},
    {"listing1.ir:vuln+hard", TrapKind::None, 0x0ULL, 26, 1, 0xcbf29ce484222325ULL},
    {"listing1.ir:driver+hard", TrapKind::None, 0xdULL, 377, 9, 0xcbf29ce484222325ULL},
    {"spin.ir:spin+hard", TrapKind::OutOfFuel, 0x0ULL, 200000000, 1, 0xcbf29ce484222325ULL},
    {"fuzz:1", TrapKind::None, 0x5e8c3129bcdb0410ULL, 156, 1, 0xcbf29ce484222325ULL},
    {"fuzz:1+hard", TrapKind::None, 0x5e8c3129bcdb0410ULL, 183, 1, 0xcbf29ce484222325ULL},
    {"fuzz:2", TrapKind::None, 0xfd156893b54af58aULL, 533, 1, 0xcbf29ce484222325ULL},
    {"fuzz:2+hard", TrapKind::None, 0xfd156893b54af58aULL, 560, 1, 0xcbf29ce484222325ULL},
    {"fuzz:3", TrapKind::None, 0xe3addb985c0158c4ULL, 448, 1, 0xcbf29ce484222325ULL},
    {"fuzz:3+hard", TrapKind::None, 0xe3addb985c0158c4ULL, 487, 1, 0xcbf29ce484222325ULL},
    {"fuzz:4", TrapKind::None, 0x181e12ceb7dddd2aULL, 573, 1, 0xcbf29ce484222325ULL},
    {"fuzz:4+hard", TrapKind::None, 0x181e12ceb7dddd2aULL, 609, 1, 0xcbf29ce484222325ULL},
    {"fuzz:5", TrapKind::None, 0xffffffffffffeed7ULL, 329, 1, 0xcbf29ce484222325ULL},
    {"fuzz:5+hard", TrapKind::None, 0xffffffffffffeed7ULL, 365, 1, 0xcbf29ce484222325ULL},
    {"fuzz:6", TrapKind::None, 0xf19662e5a99d57b7ULL, 446, 1, 0xcbf29ce484222325ULL},
    {"fuzz:6+hard", TrapKind::None, 0xf19662e5a99d57b7ULL, 479, 1, 0xcbf29ce484222325ULL},
    {"fuzz:7", TrapKind::None, 0xc2b4882e316447a8ULL, 653, 1, 0xcbf29ce484222325ULL},
    {"fuzz:7+hard", TrapKind::None, 0xc2b4882e316447a8ULL, 686, 1, 0xcbf29ce484222325ULL},
    {"fuzz:8", TrapKind::None, 0x146e6c5f7c1accb6ULL, 228, 1, 0xcbf29ce484222325ULL},
    {"fuzz:8+hard", TrapKind::None, 0x146e6c5f7c1accb6ULL, 264, 1, 0xcbf29ce484222325ULL},
    {"fuzz:9", TrapKind::None, 0xbb1fcd3001cf2a54ULL, 256, 1, 0xcbf29ce484222325ULL},
    {"fuzz:9+hard", TrapKind::None, 0xbb1fcd3001cf2a54ULL, 292, 1, 0xcbf29ce484222325ULL},
    {"fuzz:10", TrapKind::None, 0xb8490153c69c1a49ULL, 702, 1, 0xcbf29ce484222325ULL},
    {"fuzz:10+hard", TrapKind::None, 0xb8490153c69c1a49ULL, 735, 1, 0xcbf29ce484222325ULL},
    {"fuzz:11", TrapKind::None, 0xec6ce54faff34302ULL, 516, 1, 0xcbf29ce484222325ULL},
    {"fuzz:11+hard", TrapKind::None, 0xec6ce54faff34302ULL, 555, 1, 0xcbf29ce484222325ULL},
    {"fuzz:12", TrapKind::None, 0xe19cce5cb45c322dULL, 684, 1, 0xcbf29ce484222325ULL},
    {"fuzz:12+hard", TrapKind::None, 0xe19cce5cb45c322dULL, 723, 1, 0xcbf29ce484222325ULL},
    {"fuzz:13", TrapKind::None, 0x433b20e5be1fd6bULL, 518, 1, 0xcbf29ce484222325ULL},
    {"fuzz:13+hard", TrapKind::None, 0x433b20e5be1fd6bULL, 545, 1, 0xcbf29ce484222325ULL},
    {"fuzz:14", TrapKind::None, 0x38a1ed3a607efe30ULL, 584, 1, 0xcbf29ce484222325ULL},
    {"fuzz:14+hard", TrapKind::None, 0x38a1ed3a607efe30ULL, 623, 1, 0xcbf29ce484222325ULL},
    {"fuzz:15", TrapKind::None, 0x8247ec803077f183ULL, 338, 1, 0xcbf29ce484222325ULL},
    {"fuzz:15+hard", TrapKind::None, 0x8247ec803077f183ULL, 371, 1, 0xcbf29ce484222325ULL},
    {"fuzz:16", TrapKind::None, 0xf81ca49ab5b39d3dULL, 569, 1, 0xcbf29ce484222325ULL},
    {"fuzz:16+hard", TrapKind::None, 0xf81ca49ab5b39d3dULL, 599, 1, 0xcbf29ce484222325ULL},
    {"fuzz:17", TrapKind::None, 0x99ee5f4bfbb58039ULL, 547, 1, 0xcbf29ce484222325ULL},
    {"fuzz:17+hard", TrapKind::None, 0x99ee5f4bfbb58039ULL, 589, 1, 0xcbf29ce484222325ULL},
    {"fuzz:18", TrapKind::None, 0x87c941d4503b7bc6ULL, 157, 1, 0xcbf29ce484222325ULL},
    {"fuzz:18+hard", TrapKind::None, 0x87c941d4503b7bc6ULL, 187, 1, 0xcbf29ce484222325ULL},
    {"fuzz:19", TrapKind::None, 0x6a236fb6ead2c229ULL, 440, 1, 0xcbf29ce484222325ULL},
    {"fuzz:19+hard", TrapKind::None, 0x6a236fb6ead2c229ULL, 473, 1, 0xcbf29ce484222325ULL},
    {"fuzz:20", TrapKind::None, 0xef13c585304e810ULL, 304, 1, 0xcbf29ce484222325ULL},
    {"fuzz:20+hard", TrapKind::None, 0xef13c585304e810ULL, 343, 1, 0xcbf29ce484222325ULL},
    {"fuzz:21", TrapKind::None, 0x624c88128464f451ULL, 224, 1, 0xcbf29ce484222325ULL},
    {"fuzz:21+hard", TrapKind::None, 0x624c88128464f451ULL, 263, 1, 0xcbf29ce484222325ULL},
    {"fuzz:22", TrapKind::None, 0x4efa707b68ef9589ULL, 652, 1, 0xcbf29ce484222325ULL},
    {"fuzz:22+hard", TrapKind::None, 0x4efa707b68ef9589ULL, 685, 1, 0xcbf29ce484222325ULL},
    {"fuzz:23", TrapKind::None, 0x66ee57488f715e23ULL, 474, 1, 0xcbf29ce484222325ULL},
    {"fuzz:23+hard", TrapKind::None, 0x66ee57488f715e23ULL, 507, 1, 0xcbf29ce484222325ULL},
    {"fuzz:24", TrapKind::None, 0x75a937bef3ac9814ULL, 311, 1, 0xcbf29ce484222325ULL},
    {"fuzz:24+hard", TrapKind::None, 0x75a937bef3ac9814ULL, 347, 1, 0xcbf29ce484222325ULL},
    {"fuzz:25", TrapKind::None, 0x8ba3e8f6b224891eULL, 491, 1, 0xcbf29ce484222325ULL},
    {"fuzz:25+hard", TrapKind::None, 0x8ba3e8f6b224891eULL, 530, 1, 0xcbf29ce484222325ULL},
    {"fuzz:26", TrapKind::None, 0x5de5564b89d20877ULL, 389, 1, 0xcbf29ce484222325ULL},
    {"fuzz:26+hard", TrapKind::None, 0x5de5564b89d20877ULL, 431, 1, 0xcbf29ce484222325ULL},
    {"fuzz:27", TrapKind::None, 0x74f8799956684ff2ULL, 538, 1, 0xcbf29ce484222325ULL},
    {"fuzz:27+hard", TrapKind::None, 0x74f8799956684ff2ULL, 577, 1, 0xcbf29ce484222325ULL},
    {"fuzz:28", TrapKind::None, 0x68f14426a088f574ULL, 409, 1, 0xcbf29ce484222325ULL},
    {"fuzz:28+hard", TrapKind::None, 0x68f14426a088f574ULL, 439, 1, 0xcbf29ce484222325ULL},
    {"fuzz:29", TrapKind::None, 0x438b00cd1df6f953ULL, 424, 1, 0xcbf29ce484222325ULL},
    {"fuzz:29+hard", TrapKind::None, 0x438b00cd1df6f953ULL, 454, 1, 0xcbf29ce484222325ULL},
    {"fuzz:30", TrapKind::None, 0x7407c2c1d0c98a69ULL, 179, 1, 0xcbf29ce484222325ULL},
    {"fuzz:30+hard", TrapKind::None, 0x7407c2c1d0c98a69ULL, 209, 1, 0xcbf29ce484222325ULL},
    {"fuzz:31", TrapKind::None, 0xf5092b7dbacdf80bULL, 360, 1, 0xcbf29ce484222325ULL},
    {"fuzz:31+hard", TrapKind::None, 0xf5092b7dbacdf80bULL, 387, 1, 0xcbf29ce484222325ULL},
    {"fuzz:32", TrapKind::None, 0x59c3f6a2337c6ddULL, 185, 1, 0xcbf29ce484222325ULL},
    {"fuzz:32+hard", TrapKind::None, 0x59c3f6a2337c6ddULL, 215, 1, 0xcbf29ce484222325ULL},
    {"fuzz:33", TrapKind::None, 0x4c7f7349f5f4d2d7ULL, 775, 1, 0xcbf29ce484222325ULL},
    {"fuzz:33+hard", TrapKind::None, 0x4c7f7349f5f4d2d7ULL, 808, 1, 0xcbf29ce484222325ULL},
    {"fuzz:34", TrapKind::None, 0x3707583c040690f6ULL, 539, 1, 0xcbf29ce484222325ULL},
    {"fuzz:34+hard", TrapKind::None, 0x3707583c040690f6ULL, 581, 1, 0xcbf29ce484222325ULL},
    {"fuzz:35", TrapKind::None, 0xf4da42be174e67eULL, 396, 1, 0xcbf29ce484222325ULL},
    {"fuzz:35+hard", TrapKind::None, 0xf4da42be174e67eULL, 423, 1, 0xcbf29ce484222325ULL},
    {"fuzz:36", TrapKind::None, 0xd9f6b0fe3c6f6fa3ULL, 399, 1, 0xcbf29ce484222325ULL},
    {"fuzz:36+hard", TrapKind::None, 0xd9f6b0fe3c6f6fa3ULL, 429, 1, 0xcbf29ce484222325ULL},
    {"fuzz:37", TrapKind::None, 0x9e55faa95dc308fbULL, 763, 1, 0xcbf29ce484222325ULL},
    {"fuzz:37+hard", TrapKind::None, 0x9e55faa95dc308fbULL, 799, 1, 0xcbf29ce484222325ULL},
    {"fuzz:38", TrapKind::None, 0x8e8b991db4c3f31dULL, 351, 1, 0xcbf29ce484222325ULL},
    {"fuzz:38+hard", TrapKind::None, 0x8e8b991db4c3f31dULL, 384, 1, 0xcbf29ce484222325ULL},
    {"fuzz:39", TrapKind::None, 0xe77dcdbb9a79c60aULL, 303, 1, 0xcbf29ce484222325ULL},
    {"fuzz:39+hard", TrapKind::None, 0xe77dcdbb9a79c60aULL, 342, 1, 0xcbf29ce484222325ULL},
    {"fuzz:40", TrapKind::None, 0x6f3d64737a255743ULL, 476, 1, 0xcbf29ce484222325ULL},
    {"fuzz:40+hard", TrapKind::None, 0x6f3d64737a255743ULL, 515, 1, 0xcbf29ce484222325ULL},
    {"division-by-zero", TrapKind::DivisionByZero, 0x0ULL, 4, 1, 0xcbf29ce484222325ULL},
    {"unmapped-access", TrapKind::UnmappedAccess, 0x0ULL, 2, 1, 0xcbf29ce484222325ULL},
    {"out-of-fuel", TrapKind::OutOfFuel, 0x0ULL, 100, 1, 0xcbf29ce484222325ULL},
    {"vla-size-overflow", TrapKind::StackOverflow, 0x0ULL, 4, 1, 0xcbf29ce484222325ULL},
    {"unreachable", TrapKind::ExplicitTrap, 0x0ULL, 1, 1, 0xcbf29ce484222325ULL},
    {"call-depth-limit", TrapKind::StackOverflow, 0x0ULL, 513, 513, 0xcbf29ce484222325ULL},
    {"unknown-builtin", TrapKind::BadCall, 0x0ULL, 1, 1, 0xcbf29ce484222325ULL},
    {"builtins-and-input", TrapKind::None, 0x6f6c6c656dULL, 6, 1, 0x07eb3407b4aede8eULL},
};
// clang-format on

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

/// Runs \p FuncName of \p M on a fresh decoded-engine interpreter and
/// compares the run with the frozen row \p Case. When \p Seed is nonzero
/// the VM draws from an AES-10 source seeded with it, so hardened modules
/// see the recorded layout stream.
void expectFrozen(Module &M, const std::string &FuncName,
                  const std::string &Case, uint64_t Seed = 0,
                  InterpreterOptions Opts = InterpreterOptions(),
                  const char *Input = nullptr) {
  const FrozenResult *Want = nullptr;
  for (const FrozenResult &Row : Frozen)
    if (Case == Row.Case)
      Want = &Row;
  ASSERT_NE(Want, nullptr) << "no frozen row for case " << Case;

  DeterministicEntropySource Entropy(Seed);
  AesCtrRandomSource Rng(Entropy, 10);
  Interpreter VM(M, Seed ? &Rng : nullptr, Opts);
  if (Input)
    VM.pushInputString(Input);
  ExecResult R = VM.run(FuncName);

  EXPECT_EQ(R.Trap, Want->Trap)
      << Case << ": trapped with '" << trapKindName(R.Trap) << "' ("
      << R.Message << "), frozen '" << trapKindName(Want->Trap) << "'";
  EXPECT_EQ(R.ReturnValue, Want->ReturnValue) << Case;
  EXPECT_EQ(R.Steps, Want->Steps) << Case;
  EXPECT_EQ(VM.callsExecuted(), Want->Calls) << Case;
  EXPECT_EQ(fnv1a(VM.output()), Want->OutputFnv) << Case;
}

/// Every zero-argument definition of every example, optionally hardened.
unsigned expectExamplesFrozen(bool Hardened) {
  return forEachExampleFunction(
      Hardened, [&](Module &M, const std::string &Fn, const std::string &File) {
        expectFrozen(M, Fn, File + ":" + Fn + (Hardened ? "+hard" : ""),
                     Hardened ? 0xD1FF : 0);
      });
}

} // namespace

TEST(DecodedDifferentialTest, ExampleModulesMatchPlain) {
  EXPECT_GT(expectExamplesFrozen(/*Hardened=*/false), 0u)
      << "no zero-argument definitions exercised";
}

TEST(DecodedDifferentialTest, ExampleModulesMatchHardened) {
  EXPECT_GT(expectExamplesFrozen(/*Hardened=*/true), 0u)
      << "no zero-argument definitions exercised";
}

// The randomized corpus of the instrumentation fuzzer: plain modules and
// Smokestack-hardened modules with pinned randomness.
class DecodedDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecodedDifferentialFuzz, CorpusMatches) {
  uint64_t Seed = GetParam();
  std::string Case = "fuzz:" + std::to_string(Seed);
  Module Plain("plain");
  buildRandomProgram(Plain, Seed);
  ASSERT_TRUE(verifyModule(Plain));
  expectFrozen(Plain, "main", Case);

  Module Hard("hard");
  buildRandomProgram(Hard, Seed);
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(Hard);
  ASSERT_TRUE(verifyModule(Hard));
  expectFrozen(Hard, "main", Case + "+hard", /*Seed=*/Seed ^ 0xF022);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodedDifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 41));

TEST(DecodedDifferentialTest, DivisionByZeroParity) {
  Module M("t");
  buildDivisionByZero(M);
  expectFrozen(M, "main", "division-by-zero");
}

TEST(DecodedDifferentialTest, UnmappedAccessParity) {
  Module M("t");
  buildUnmappedAccess(M);
  expectFrozen(M, "main", "unmapped-access");
}

TEST(DecodedDifferentialTest, OutOfFuelParity) {
  Module M("t");
  buildEndlessLoop(M);
  InterpreterOptions Opts;
  Opts.Fuel = 100;
  expectFrozen(M, "main", "out-of-fuel", /*Seed=*/0, Opts);
}

TEST(DecodedDifferentialTest, VlaSizeOverflowTrapsInBothEngines) {
  Module M("t");
  buildVlaSizeOverflow(M);
  expectFrozen(M, "main", "vla-size-overflow");
}

TEST(DecodedDifferentialTest, UnreachableParity) {
  Module M("t");
  buildUnreachable(M);
  expectFrozen(M, "main", "unreachable");
}

TEST(DecodedDifferentialTest, CallDepthLimitParity) {
  Module M("t");
  buildUnboundedRecursion(M);
  expectFrozen(M, "main", "call-depth-limit");
}

TEST(DecodedDifferentialTest, UnknownBuiltinParity) {
  Module M("t");
  buildUnknownBuiltinCall(M);
  expectFrozen(M, "main", "unknown-builtin");
}

TEST(DecodedDifferentialTest, BuiltinsAndInputParity) {
  Module M("t");
  buildInputAndPrint(M);
  expectFrozen(M, "main", "builtins-and-input", /*Seed=*/0,
               InterpreterOptions(), "hello");
}
