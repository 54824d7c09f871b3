//===- attacks/compiler/Corpus.cpp - Attack-by-defense corpus --------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/compiler/Corpus.h"

#include "attacks/compiler/SpecGen.h"
#include "support/Fnv.h"

#include <set>

using namespace smokestack;

CorpusCell smokestack::runCorpusCell(uint64_t RootSeed, uint32_t SpecIndex,
                                     DefenseKind Defense, unsigned Budget,
                                     bool Jit) {
  AttackSpec Spec = generateSpec(RootSeed, SpecIndex);
  AttackReport Report = runCompiledAttack(Spec, Defense, Budget, Jit);
  CorpusCell Cell;
  Cell.SpecIndex = SpecIndex;
  Cell.Defense = Defense;
  Cell.Outcome = Report.Outcome;
  Cell.Trap = Report.Trap;
  Cell.AttemptsUsed = Report.AttemptsUsed;
  return Cell;
}

AttackCorpusResult
smokestack::runAttackCorpus(const AttackCorpusOptions &Options) {
  AttackCorpusResult Result;
  Result.Options = Options;

  std::span<const DefenseKind> Defenses = allDefenseKinds();
  Result.Tallies.reserve(Defenses.size());
  for (DefenseKind Kind : Defenses) {
    DefenseTally T;
    T.Defense = Kind;
    Result.Tallies.push_back(T);
  }

  Fnv64 Digest;
  Digest.mix(Options.RootSeed);
  Digest.mix(Options.SpecCount);
  Digest.mix(Options.Budget);

  std::set<uint64_t> Fingerprints;
  Result.Cells.reserve(size_t(Options.SpecCount) * Defenses.size());
  for (uint32_t Index = 0; Index != Options.SpecCount; ++Index) {
    uint64_t Fingerprint = generateSpec(Options.RootSeed, Index).fingerprint();
    Digest.mix(Fingerprint);
    Fingerprints.insert(Fingerprint);
    for (size_t D = 0; D != Defenses.size(); ++D) {
      CorpusCell Cell =
          runCorpusCell(Options.RootSeed, Index, Defenses[D], Options.Budget,
                        Options.Jit);
      Digest.mix(uint64_t(Cell.Defense));
      Digest.mix(uint64_t(Cell.Outcome));
      Digest.mix(uint64_t(Cell.Trap));
      Digest.mix(Cell.AttemptsUsed);

      DefenseTally &T = Result.Tallies[D];
      T.Attacks += 1;
      switch (Cell.Outcome) {
      case AttackOutcome::Succeeded:
        T.Succeeded += 1;
        break;
      case AttackOutcome::StoppedByTrap:
        T.StoppedByTrap += 1;
        break;
      case AttackOutcome::MissedTarget:
        T.Missed += 1;
        break;
      }
      if (Cell.AttemptsUsed == 0)
        T.Unlowerable += 1;
      Result.Cells.push_back(Cell);
    }
  }
  Result.DistinctSpecs = unsigned(Fingerprints.size());
  Result.Digest = Digest.value();
  return Result;
}
