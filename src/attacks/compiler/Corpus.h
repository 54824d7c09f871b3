//===- attacks/compiler/Corpus.h - Attack-by-defense corpus ----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The defeat-rate corpus: every generated AttackSpec compiled and run
/// against every DefenseKind. The matrix is the paper's Table-style
/// penetration result at corpus scale — the CI gate requires Smokestack to
/// defeat (nearly) everything the undefended build cannot, and strictly
/// more than every baseline defense.
///
/// Determinism contract: a corpus cell is a pure function of (RootSeed,
/// SpecIndex, Defense, Budget), whichever engine runs the victims (the
/// engine is not part of the digest: both must produce the same one).
/// runAttackCorpus is a loop over
/// runCorpusCell with zero shared state, so any cell can be replayed
/// standalone (bench/attack_corpus -spec=K) and must reproduce the
/// committed corpus bit-for-bit; the corpus digest folds every cell.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_ATTACKS_COMPILER_CORPUS_H
#define SMOKESTACK_ATTACKS_COMPILER_CORPUS_H

#include "attacks/compiler/Lowering.h"

namespace smokestack {

struct AttackCorpusOptions {
  uint64_t RootSeed = 7;
  /// Specs 0..SpecCount-1 are enumerated; stratification guarantees an
  /// exact even split of corruption modes.
  unsigned SpecCount = 512;
  /// Exploit attempts per cell (crash-restart budget).
  unsigned Budget = 4;
  /// Run the exploit attempts on the JIT (runCompiledAttack).
  bool Jit = false;
};

/// One (spec, defense) matrix entry.
struct CorpusCell {
  uint32_t SpecIndex = 0;
  DefenseKind Defense = DefenseKind::None;
  AttackOutcome Outcome = AttackOutcome::MissedTarget;
  TrapKind Trap = TrapKind::None;
  /// 0 when the spec did not lower against the disclosed layout.
  unsigned AttemptsUsed = 0;
};

/// Aggregate over one defense's column of the matrix.
struct DefenseTally {
  DefenseKind Defense = DefenseKind::None;
  unsigned Attacks = 0;
  unsigned Succeeded = 0;
  unsigned StoppedByTrap = 0;
  unsigned Missed = 0;
  /// Cells whose spec offered no reachable gadget after the probe (a
  /// defense win without a single exploit run).
  unsigned Unlowerable = 0;

  unsigned defeated() const { return Attacks - Succeeded; }
  double defeatRate() const {
    return Attacks ? double(defeated()) / double(Attacks) : 0.0;
  }
};

struct AttackCorpusResult {
  AttackCorpusOptions Options;
  /// Spec-major, defense-minor in allDefenseKinds() order.
  std::vector<CorpusCell> Cells;
  /// One tally per DefenseKind, in allDefenseKinds() order.
  std::vector<DefenseTally> Tallies;
  /// Distinct spec fingerprints among the SpecCount generated specs.
  unsigned DistinctSpecs = 0;
  /// FNV-1a over the options, every spec fingerprint, and every cell.
  uint64_t Digest = 0;
};

/// Replays the single matrix cell at these coordinates. The building block
/// of runAttackCorpus and of the standalone-replay determinism check.
CorpusCell runCorpusCell(uint64_t RootSeed, uint32_t SpecIndex,
                         DefenseKind Defense, unsigned Budget,
                         bool Jit = false);

/// Runs the full matrix.
AttackCorpusResult runAttackCorpus(const AttackCorpusOptions &Options);

} // namespace smokestack

#endif // SMOKESTACK_ATTACKS_COMPILER_CORPUS_H
