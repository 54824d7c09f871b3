//===- tests/attacks/AttackCompilerTest.cpp - Attack compiler tests ------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attack compiler's contract: the seeded spec generator is pure,
/// stratified, and collision-free at corpus scale; compiled attacks land
/// against the undefended build on the first attempt and die under
/// Smokestack; and every corpus cell replays bit-identically from its
/// (RootSeed, SpecIndex, Defense) coordinates.
///
//===----------------------------------------------------------------------===//

#include "attacks/compiler/Corpus.h"
#include "attacks/compiler/SpecGen.h"

#include <gtest/gtest.h>
#include <set>

using namespace smokestack;

namespace {

const DefenseTally &tallyFor(const AttackCorpusResult &Result,
                             DefenseKind Kind) {
  for (const DefenseTally &T : Result.Tallies)
    if (T.Defense == Kind)
      return T;
  ADD_FAILURE() << "no tally for " << defenseKindName(Kind);
  static DefenseTally Empty;
  return Empty;
}

} // namespace

TEST(AttackCompilerTest, SpecGenerationIsPurePerIndex) {
  // Re-generating any index must not depend on which indices were
  // generated before it — that is what makes cells replayable standalone.
  std::vector<AttackSpec> Batch = generateSpecs(7, 32);
  for (uint32_t I = 0; I != 32; ++I) {
    AttackSpec Alone = generateSpec(7, I);
    EXPECT_EQ(Alone.fingerprint(), Batch[I].fingerprint())
        << "index " << I << " depends on enumeration order";
  }
  // And regeneration is bit-stable.
  EXPECT_EQ(generateSpec(7, 11).fingerprint(),
            generateSpec(7, 11).fingerprint());
}

TEST(AttackCompilerTest, SpecsDistinctAtCorpusScale) {
  // The committed corpus enumerates 512 specs; all of them must be
  // distinct, with an exact even split of corruption families (the
  // stratification is index arithmetic, not coin flips).
  constexpr unsigned N = 512;
  std::set<uint64_t> Fingerprints;
  unsigned Direct = 0, Indirect = 0;
  for (uint32_t I = 0; I != N; ++I) {
    AttackSpec Spec = generateSpec(7, I);
    Fingerprints.insert(Spec.fingerprint());
    (Spec.Mode == CorruptionMode::Direct ? Direct : Indirect)++;
  }
  EXPECT_EQ(Fingerprints.size(), N);
  EXPECT_EQ(Direct, N / 2);
  EXPECT_EQ(Indirect, N / 2);
  EXPECT_GE(Direct, 200u) << "ISSUE floor: >=200 specs per family";
}

TEST(AttackCompilerTest, StratificationCoversShapesAndRegions) {
  bool Counted = false, Sentinel = false;
  bool Stack = false, Global = false, Heap = false;
  for (uint32_t I = 0; I != 12; ++I) {
    AttackSpec Spec = generateSpec(7, I);
    if (Spec.Mode == CorruptionMode::Direct) {
      EXPECT_EQ(Spec.Region, BufferRegion::Stack)
          << "direct sweeps must cross stack frames";
      Counted |= Spec.Shape == DispatcherShape::CountedLoop;
      Sentinel |= Spec.Shape == DispatcherShape::SentinelLoop;
    } else {
      Stack |= Spec.Region == BufferRegion::Stack;
      Global |= Spec.Region == BufferRegion::Global;
      Heap |= Spec.Region == BufferRegion::Heap;
    }
  }
  EXPECT_TRUE(Counted && Sentinel) << "both dispatcher shapes in 12 specs";
  EXPECT_TRUE(Stack && Global && Heap) << "all three regions in 12 specs";
}

TEST(AttackCompilerTest, RootSeedChangesTheCorpus) {
  EXPECT_NE(generateSpec(7, 0).fingerprint(),
            generateSpec(8, 0).fingerprint());
}

TEST(AttackCompilerTest, DopChainSemantics) {
  AttackSpec Spec;
  Spec.InitialAcc = 100;
  Spec.Chain = {{GadgetOp::Add, 7}, {GadgetOp::Sub, 3}, {GadgetOp::Xor, 9}};
  EXPECT_EQ(Spec.dopIntermediate(0), 100u);
  EXPECT_EQ(Spec.dopIntermediate(1), 107u);
  EXPECT_EQ(Spec.dopIntermediate(2), 104u);
  EXPECT_EQ(Spec.dopResult(), 104u ^ 9u);
  EXPECT_EQ(Spec.dopIntermediate(99), Spec.dopResult())
      << "past-the-end intermediates saturate at the final result";
}

TEST(AttackCompilerTest, UndisclosedLayoutDoesNotLower) {
  // No probe, no gadgets: the compiler must refuse, not guess addresses.
  LayoutOracle Blind;
  EXPECT_FALSE(lowerAttack(generateSpec(7, 0), Blind).has_value());
  EXPECT_FALSE(lowerAttack(generateSpec(7, 1), Blind).has_value());
}

TEST(AttackCompilerTest, DirectAttackLandsUndefendedFirstTry) {
  AttackSpec Spec = generateSpec(7, 0); // even index: Direct
  ASSERT_EQ(Spec.Mode, CorruptionMode::Direct);
  AttackReport R = runCompiledAttack(Spec, DefenseKind::None, /*Budget=*/2);
  EXPECT_EQ(R.Outcome, AttackOutcome::Succeeded) << R.Detail;
  EXPECT_EQ(R.AttemptsUsed, 1u)
      << "against a fixed layout the probe fully de-randomizes";
}

TEST(AttackCompilerTest, IndirectAttackLandsUndefendedFirstTry) {
  AttackSpec Spec = generateSpec(7, 1); // odd index: PointerIndirect
  ASSERT_EQ(Spec.Mode, CorruptionMode::PointerIndirect);
  AttackReport R = runCompiledAttack(Spec, DefenseKind::None, /*Budget=*/2);
  EXPECT_EQ(R.Outcome, AttackOutcome::Succeeded) << R.Detail;
  EXPECT_EQ(R.AttemptsUsed, 1u);
}

TEST(AttackCompilerTest, SmokestackDefeatsBothFamilies) {
  for (uint32_t Index : {0u, 1u}) {
    AttackReport R = runCompiledAttack(generateSpec(7, Index),
                                       DefenseKind::Smokestack, /*Budget=*/2);
    EXPECT_NE(R.Outcome, AttackOutcome::Succeeded)
        << "spec " << Index << ": " << R.Detail;
  }
}

TEST(AttackCompilerTest, CorpusCellsReplayStandalone) {
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 6;
  Options.Budget = 1;
  AttackCorpusResult Result = runAttackCorpus(Options);
  ASSERT_EQ(Result.Cells.size(), 6 * allDefenseKinds().size());
  for (const CorpusCell &Cell : Result.Cells) {
    CorpusCell Replayed = runCorpusCell(Options.RootSeed, Cell.SpecIndex,
                                        Cell.Defense, Options.Budget);
    EXPECT_EQ(Replayed.Outcome, Cell.Outcome)
        << "spec " << Cell.SpecIndex << " vs "
        << defenseKindName(Cell.Defense);
    EXPECT_EQ(Replayed.Trap, Cell.Trap);
    EXPECT_EQ(Replayed.AttemptsUsed, Cell.AttemptsUsed);
  }
}

TEST(AttackCompilerTest, CorpusDigestIsDeterministicAndSeedSensitive) {
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 4;
  Options.Budget = 1;
  AttackCorpusResult A = runAttackCorpus(Options);
  AttackCorpusResult B = runAttackCorpus(Options);
  EXPECT_EQ(A.Digest, B.Digest) << "rerun must be bit-identical";
  EXPECT_EQ(A.DistinctSpecs, 4u);
  Options.RootSeed = 8;
  EXPECT_NE(runAttackCorpus(Options).Digest, A.Digest);
}

TEST(AttackCompilerTest, CorpusDigestIsTheSameOnTheJit) {
  // Victims on the JIT permute their frames in native code; every cell,
  // and so the digest, must equal the decoded engine's.
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 6;
  Options.Budget = 2;
  AttackCorpusResult Decoded = runAttackCorpus(Options);
  Options.Jit = true;
  AttackCorpusResult Jit = runAttackCorpus(Options);
  EXPECT_EQ(Jit.Digest, Decoded.Digest);
  ASSERT_EQ(Jit.Cells.size(), Decoded.Cells.size());
  for (size_t I = 0; I != Jit.Cells.size(); ++I) {
    EXPECT_EQ(Jit.Cells[I].Outcome, Decoded.Cells[I].Outcome) << I;
    EXPECT_EQ(Jit.Cells[I].Trap, Decoded.Cells[I].Trap) << I;
    EXPECT_EQ(Jit.Cells[I].AttemptsUsed, Decoded.Cells[I].AttemptsUsed) << I;
  }
}

TEST(AttackCompilerTest, SmallCorpusDefeatDifferential) {
  // The headline differential at toy scale: the undefended build loses
  // every attack, Smokestack survives every one. The full defeat-rate
  // policy (>=0.99, strictly above every baseline) is gated on the
  // committed 512-spec corpus by tools/check_bench_regression.py.
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 8;
  Options.Budget = 1;
  AttackCorpusResult Result = runAttackCorpus(Options);
  const DefenseTally &Undefended = tallyFor(Result, DefenseKind::None);
  EXPECT_EQ(Undefended.Attacks, 8u);
  EXPECT_EQ(Undefended.Succeeded, 8u) << "compiled attacks must land";
  EXPECT_EQ(Undefended.defeatRate(), 0.0);
  const DefenseTally &Smokestack = tallyFor(Result, DefenseKind::Smokestack);
  EXPECT_EQ(Smokestack.Succeeded, 0u);
  EXPECT_EQ(Smokestack.defeatRate(), 1.0);
}
