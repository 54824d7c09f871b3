//===- attacks/compiler/Lowering.cpp - Spec-to-payload lowering ------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/compiler/Lowering.h"

#include "attacks/compiler/Synthesis.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

using namespace smokestack;

namespace {

std::string cellName(unsigned I) { return "cell" + std::to_string(I); }
std::string tgtName(unsigned I) { return "tgt" + std::to_string(I); }

/// Direct mode: one record per dispatcher round. Record j (1-based) is
/// consumed at the top of round j and must set up that round's gadget plus
/// the counter value that makes round k (or the sentinel's halt round) the
/// last.
std::optional<LoweredAttack> lowerDirect(const AttackSpec &Spec,
                                         const LayoutOracle &Oracle) {
  for (const char *Var : {"ctr", "op", "step", "acc"})
    if (!Oracle.knows("driver", Var))
      return std::nullopt;
  if (!Oracle.knows("vuln", "buff"))
    return std::nullopt;
  auto Delta = [&](const char *Var) {
    return static_cast<int64_t>(Oracle.addressOf("driver", Var)) -
           static_cast<int64_t>(Oracle.addressOf("vuln", "buff"));
  };
  int64_t DCtr = Delta("ctr");
  int64_t DOp = Delta("op");
  int64_t DStep = Delta("step");
  int64_t DAcc = Delta("acc");
  if (DCtr <= 0 || DOp <= 0 || DStep <= 0 || DAcc <= 0)
    return std::nullopt; // a target below the buffer is unreachable

  unsigned K = Spec.Chain.size();
  LoweredAttack L;
  L.SuccessValue = Spec.dopResult();
  for (unsigned J = 1; J <= K; ++J) {
    Payload P(0);
    P.pokeInt(static_cast<size_t>(DAcc), Spec.dopIntermediate(J - 1));
    P.pokeInt(static_cast<size_t>(DStep), Spec.Chain[J - 1].Operand);
    P.pokeInt(static_cast<size_t>(DOp),
              static_cast<uint64_t>(Spec.Chain[J - 1].Op));
    // CountedLoop: land the chain on the final Rounds-K..Rounds-1 rounds so
    // the latch's increment after record K ends the loop. SentinelLoop: keep
    // the true round count, comfortably under the backstop.
    uint64_t Ctr = Spec.Shape == DispatcherShape::CountedLoop
                       ? Spec.Rounds - K + (J - 1)
                       : J - 1;
    P.pokeInt(static_cast<size_t>(DCtr), Ctr);
    L.Records.push_back(std::move(P));
  }
  if (Spec.Shape == DispatcherShape::SentinelLoop) {
    // The halt round consumes one more record; its sweep clobbers acc, so
    // the final DOP result rides in with the halt opcode.
    Payload H(0);
    H.pokeInt(static_cast<size_t>(DAcc), Spec.dopResult());
    H.pokeInt(static_cast<size_t>(DOp), GadgetHaltOp);
    H.pokeInt(static_cast<size_t>(DCtr), K);
    L.Records.push_back(std::move(H));
  }
  return L;
}

/// PointerIndirect: one record redirecting every cell at its target word's
/// disclosed address; the program's own write-throughs do the rest.
std::optional<LoweredAttack> lowerIndirect(const AttackSpec &Spec,
                                           const LayoutOracle &Oracle) {
  for (unsigned I = 0; I != Spec.TargetCells; ++I)
    if (!Oracle.knows("driver", tgtName(I)))
      return std::nullopt;

  Payload P(0);
  if (Spec.Region == BufferRegion::Stack) {
    if (!Oracle.knows("vuln", "buff"))
      return std::nullopt;
    for (unsigned I = 0; I != Spec.TargetCells; ++I) {
      if (!Oracle.knows("vuln", cellName(I)))
        return std::nullopt;
      int64_t DCell =
          static_cast<int64_t>(Oracle.addressOf("vuln", cellName(I))) -
          static_cast<int64_t>(Oracle.addressOf("vuln", "buff"));
      if (DCell <= 0)
        return std::nullopt;
      P.pokeInt(static_cast<size_t>(DCell),
                Oracle.addressOf("driver", tgtName(I)));
    }
  } else {
    // Data-segment / heap adjacency is fixed by the build: cells sit
    // directly after the buffer.
    for (unsigned I = 0; I != Spec.TargetCells; ++I)
      P.pokeInt(Spec.BufferBytes + 8 * size_t(I),
                Oracle.addressOf("driver", tgtName(I)));
  }
  LoweredAttack L;
  L.SuccessValue = 1;
  L.Records.push_back(std::move(P));
  return L;
}

} // namespace

std::optional<LoweredAttack>
smokestack::lowerAttack(const AttackSpec &Spec, const LayoutOracle &Oracle) {
  return Spec.Mode == CorruptionMode::Direct ? lowerDirect(Spec, Oracle)
                                             : lowerIndirect(Spec, Oracle);
}

AttackReport smokestack::runCompiledAttack(const AttackSpec &Spec,
                                           DefenseKind Defense,
                                           unsigned Budget, bool Jit) {
  Module M(formatString("compiled-%s-%u", corruptionModeName(Spec.Mode),
                        Spec.Index));
  synthesizeVictim(M, Spec);
  DeployedDefense Deployed = deployDefense(M, Defense, Spec.BuildSeed);

  // Runtime randomness (drawn only by Smokestack deployments) derives from
  // the cell coordinates, never from shared state: (RootSeed, SpecIndex,
  // Defense) fully determines the cell.
  SplitMix64 RuntimeSeeder(Spec.RootSeed ^
                           (0x9E3779B97F4A7C15ULL * (uint64_t(Spec.Index) + 1)) ^
                           (uint64_t(Defense) << 56));
  DeterministicEntropySource Entropy(RuntimeSeeder.next());
  AesCtrRandomSource Rng(Entropy, /*NumRounds=*/10);
  RandomSource *RngPtr = Defense == DefenseKind::Smokestack ? &Rng : nullptr;

  AttackReport Report;
  LayoutOracle Oracle(/*KeepFirst=*/true);
  {
    Interpreter ProbeVM(M, RngPtr, Deployed.InterpOpts);
    ProbeVM.setLayoutObserver(&Oracle);
    ProbeVM.run("driver");
  }

  std::optional<LoweredAttack> Lowered = lowerAttack(Spec, Oracle);
  if (!Lowered) {
    Report.Outcome = AttackOutcome::MissedTarget;
    Report.AttemptsUsed = 0;
    Report.Detail = "spec does not lower against the disclosed layout";
    return Report;
  }

  InterpreterOptions VictimOpts = Deployed.InterpOpts;
  if (Jit) {
    VictimOpts.UseJit = true;
    VictimOpts.JitThreshold = 0;
  }
  TrapKind LastTrap = TrapKind::None;
  for (unsigned Attempt = 0; Attempt != Budget; ++Attempt) {
    Report.AttemptsUsed = Attempt + 1;
    Interpreter VM(M, RngPtr, VictimOpts);
    for (const Payload &Record : Lowered->Records)
      VM.pushInput(Record.bytes());
    ExecResult R = VM.run("driver");
    if (R.ok() && R.ReturnValue == Lowered->SuccessValue) {
      Report.Outcome = AttackOutcome::Succeeded;
      Report.Detail =
          formatString("attempt %u achieved the DOP effect", Attempt + 1);
      return Report;
    }
    if (!R.ok())
      LastTrap = R.Trap;
  }

  if (LastTrap != TrapKind::None) {
    Report.Outcome = AttackOutcome::StoppedByTrap;
    Report.Trap = LastTrap;
    Report.Detail = formatString("all %u attempts failed; last trap: %s",
                                 Budget, trapKindName(LastTrap));
  } else {
    Report.Outcome = AttackOutcome::MissedTarget;
    Report.Detail =
        formatString("all %u attempts ran clean without the effect", Budget);
  }
  return Report;
}
