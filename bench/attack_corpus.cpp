//===- bench/attack_corpus.cpp - DOP attack-compiler corpus driver --------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the attack compiler's defeat-rate corpus: every generated
/// AttackSpec (see src/attacks/compiler/SpecGen.h) compiled and launched
/// against every DefenseKind, with probe-then-exploit campaigns. Prints the
/// per-defense defeat-rate table, emits BENCH_attacks.json (for the CI
/// regression gate in tools/check_bench_regression.py), and verifies the
/// corpus's determinism contract in-process:
///
///  - a full rerun reproduces the corpus digest bit for bit (-no-rerun
///    skips this, halving runtime);
///  - a spread of cells replayed standalone from their (RootSeed,
///    SpecIndex, Defense) coordinates reproduces the in-corpus cells;
///  - every enumerated spec is distinct (fingerprint-level).
///
/// Exit status is the checked contract: prints "CORPUS PASS" and exits 0
/// only if all determinism checks hold. Defeat-rate *policy* (Smokestack
/// must beat every baseline, etc.) is enforced by the regression gate, not
/// here, so the JSON stays honest even when rates drift.
///
/// Flags: -seed=N -specs=N -budget=N -engine=decoded|jit -json=PATH
/// -no-rerun -spec=K (-spec=K replays one spec against every defense and
/// prints the detail). -engine=jit runs every exploit attempt on the JIT;
/// the probes stay decoded, and the digest must equal the decoded run's.
///
//===----------------------------------------------------------------------===//

#include "attacks/compiler/Corpus.h"
#include "attacks/compiler/SpecGen.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace smokestack;

namespace {

void printSpec(const AttackSpec &Spec) {
  std::printf("spec %u: %s region=%s", Spec.Index,
              corruptionModeName(Spec.Mode), bufferRegionName(Spec.Region));
  if (Spec.Mode == CorruptionMode::Direct)
    std::printf(" shape=%s chain=%zu rounds=%u",
                dispatcherShapeName(Spec.Shape), Spec.Chain.size(),
                Spec.Rounds);
  else
    std::printf(" cells=%u", Spec.TargetCells);
  std::printf(" buf=%uB fillers=%u/%u fingerprint=0x%016" PRIx64 "\n",
              Spec.BufferBytes, Spec.VictimFillers, Spec.DriverFillers,
              Spec.fingerprint());
}

int replayOneSpec(uint64_t RootSeed, uint32_t Index, unsigned Budget,
                  bool Jit) {
  AttackSpec Spec = generateSpec(RootSeed, Index);
  printSpec(Spec);
  for (DefenseKind Defense : allDefenseKinds()) {
    AttackReport R = runCompiledAttack(Spec, Defense, Budget, Jit);
    std::printf("  %-16s %-14s attempts=%u  %s\n", defenseKindName(Defense),
                attackOutcomeName(R.Outcome), R.AttemptsUsed,
                R.Detail.c_str());
  }
  return 0;
}

bool writeJson(const std::string &Path, const AttackCorpusResult &Result,
               bool RerunChecked, bool RerunIdentical, unsigned SpotChecks,
               double Seconds) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "attack_corpus: cannot write %s\n", Path.c_str());
    return false;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"bench\": \"attack_corpus\",\n");
  std::fprintf(F, "  \"root_seed\": %" PRIu64 ",\n", Result.Options.RootSeed);
  std::fprintf(F, "  \"specs\": %u,\n", Result.Options.SpecCount);
  std::fprintf(F, "  \"budget\": %u,\n", Result.Options.Budget);
  std::fprintf(F, "  \"engine\": \"%s\",\n",
               Result.Options.Jit ? "jit" : "decoded");
  std::fprintf(F, "  \"distinct_specs\": %u,\n", Result.DistinctSpecs);
  std::fprintf(F, "  \"digest\": \"0x%016" PRIx64 "\",\n", Result.Digest);
  std::fprintf(F, "  \"rerun_checked\": %s,\n",
               RerunChecked ? "true" : "false");
  std::fprintf(F, "  \"rerun_bit_identical\": %s,\n",
               RerunIdentical ? "true" : "false");
  std::fprintf(F, "  \"replay_spot_checks\": %u,\n", SpotChecks);
  std::fprintf(F, "  \"defenses\": [\n");
  for (size_t I = 0; I != Result.Tallies.size(); ++I) {
    const DefenseTally &T = Result.Tallies[I];
    std::fprintf(F,
                 "    {\"defense\": \"%s\", \"attacks\": %u, "
                 "\"succeeded\": %u, \"stopped_by_trap\": %u, "
                 "\"missed\": %u, \"unlowerable\": %u, "
                 "\"defeat_rate\": %.6f}%s\n",
                 defenseKindName(T.Defense), T.Attacks, T.Succeeded,
                 T.StoppedByTrap, T.Missed, T.Unlowerable, T.defeatRate(),
                 I + 1 != Result.Tallies.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"seconds\": %.4f\n", Seconds);
  std::fprintf(F, "}\n");
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  AttackCorpusOptions Options;
  std::string JsonPath;
  bool Rerun = true;
  long SpecToReplay = -1;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "-seed=", 6) == 0)
      Options.RootSeed = std::strtoull(Arg + 6, nullptr, 0);
    else if (std::strncmp(Arg, "-specs=", 7) == 0)
      Options.SpecCount = unsigned(std::strtoul(Arg + 7, nullptr, 0));
    else if (std::strncmp(Arg, "-budget=", 8) == 0)
      Options.Budget = unsigned(std::strtoul(Arg + 8, nullptr, 0));
    else if (std::strncmp(Arg, "-json=", 6) == 0)
      JsonPath = Arg + 6;
    else if (std::strcmp(Arg, "-engine=jit") == 0)
      Options.Jit = true;
    else if (std::strcmp(Arg, "-engine=decoded") == 0)
      Options.Jit = false;
    else if (std::strcmp(Arg, "-no-rerun") == 0)
      Rerun = false;
    else if (std::strncmp(Arg, "-spec=", 6) == 0)
      SpecToReplay = std::strtol(Arg + 6, nullptr, 0);
    else {
      std::fprintf(stderr,
                   "usage: attack_corpus [-seed=N] [-specs=N] [-budget=N] "
                   "[-engine=decoded|jit] [-json=PATH] [-no-rerun] "
                   "[-spec=K]\n");
      return 2;
    }
  }

  if (SpecToReplay >= 0)
    return replayOneSpec(Options.RootSeed, uint32_t(SpecToReplay),
                         Options.Budget, Options.Jit);

  std::printf("attack corpus: seed=%" PRIu64 " specs=%u budget=%u engine=%s\n",
              Options.RootSeed, Options.SpecCount, Options.Budget,
              Options.Jit ? "jit" : "decoded");

  auto Start = std::chrono::steady_clock::now();
  AttackCorpusResult Result = runAttackCorpus(Options);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  std::printf("%-16s %8s %9s %8s %7s %11s %11s\n", "defense", "attacks",
              "succeeded", "trapped", "missed", "unlowerable", "defeat-rate");
  for (const DefenseTally &T : Result.Tallies)
    std::printf("%-16s %8u %9u %8u %7u %11u %10.4f%%\n",
                defenseKindName(T.Defense), T.Attacks, T.Succeeded,
                T.StoppedByTrap, T.Missed, T.Unlowerable,
                100.0 * T.defeatRate());
  std::printf("distinct specs: %u / %u\n", Result.DistinctSpecs,
              Options.SpecCount);
  std::printf("digest: 0x%016" PRIx64 "  (%.2fs)\n", Result.Digest, Seconds);

  bool Pass = true;
  if (Result.DistinctSpecs != Options.SpecCount) {
    std::printf("FAIL: spec enumeration collided (%u distinct of %u)\n",
                Result.DistinctSpecs, Options.SpecCount);
    Pass = false;
  }

  // Standalone-replay spot checks: cells re-run from bare coordinates must
  // equal the in-corpus cells. A fixed stride covers every defense column
  // and both corruption modes.
  unsigned SpotChecks = 0;
  size_t DefenseCount = allDefenseKinds().size();
  size_t Stride = Result.Cells.size() > 48 ? Result.Cells.size() / 48 : 1;
  for (size_t CellIdx = 0; CellIdx < Result.Cells.size();
       CellIdx += Stride) {
    const CorpusCell &InCorpus = Result.Cells[CellIdx];
    CorpusCell Replayed =
        runCorpusCell(Options.RootSeed, InCorpus.SpecIndex, InCorpus.Defense,
                      Options.Budget, Options.Jit);
    ++SpotChecks;
    if (Replayed.Outcome != InCorpus.Outcome ||
        Replayed.Trap != InCorpus.Trap ||
        Replayed.AttemptsUsed != InCorpus.AttemptsUsed) {
      std::printf("FAIL: standalone replay of spec %u vs %s diverged\n",
                  InCorpus.SpecIndex, defenseKindName(InCorpus.Defense));
      Pass = false;
    }
  }
  (void)DefenseCount;
  std::printf("standalone replays: %u cells bit-identical\n", SpotChecks);

  bool RerunIdentical = true;
  if (Rerun) {
    AttackCorpusResult Second = runAttackCorpus(Options);
    RerunIdentical = Second.Digest == Result.Digest;
    if (!RerunIdentical) {
      std::printf("FAIL: rerun digest 0x%016" PRIx64 " != 0x%016" PRIx64 "\n",
                  Second.Digest, Result.Digest);
      Pass = false;
    } else {
      std::printf("rerun: digest bit-identical\n");
    }
  }

  if (!JsonPath.empty() &&
      !writeJson(JsonPath, Result, Rerun, RerunIdentical, SpotChecks,
                 Seconds))
    Pass = false;

  std::printf(Pass ? "CORPUS PASS\n" : "CORPUS FAIL\n");
  return Pass ? 0 : 1;
}
