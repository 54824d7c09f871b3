//===- tests/common/JitSweep.h - Decoded-vs-JIT fuel sweeps -----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The every-budget sweep shared by the JIT suites: one VM per engine runs
/// `main` at every fuel budget from 1 to 1024 + Steps + 1, with the
/// cooperative cancel flag off and on, and both engines must agree on
/// Trap, Steps, ReturnValue and Message at every budget — and, when the VMs
/// draw from a pool worker's RequestRng chain, on every field of its books.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_TESTS_COMMON_JITSWEEP_H
#define SMOKESTACK_TESTS_COMMON_JITSWEEP_H

#include "core/SmokestackPass.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "jit/JitAbi.h"
#include "rng/Entropy.h"
#include "rng/RandomSource.h"
#include "runtime/RequestRng.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

namespace smokestack {
namespace jit_sweep {

#define SKIP_WITHOUT_JIT()                                                     \
  do {                                                                         \
    if (!jitAvailable())                                                       \
      GTEST_SKIP() << "JIT unavailable on this host";                          \
  } while (0)

/// Every RequestRng::Books field, for comparisons and messages.
inline std::string booksString(const RequestRng::Books &B) {
  std::ostringstream OS;
  OS << "served " << B.DrawsServed << " degraded " << B.DegradedDraws
     << " fallback " << B.FallbackDraws << " failclosed "
     << B.FailClosedDraws << " failovers " << B.Failovers << " recoveries "
     << B.Recoveries << " drng-retries " << B.DrngRetryFailures
     << " drng-failures " << B.DrngFailureEvents << " rekeys "
     << B.AesRekeys << " failed-rekeys " << B.FailedRekeys << " stale "
     << B.StaleKeyDraws << " unkeyed " << B.UnkeyedDraws << " refills "
     << B.BufferRefills;
  return OS.str();
}

/// One engine's VM for a whole sweep: budgets change between requests
/// through setFuel, so the JIT compiles once and the arenas are reused.
struct SweepVM {
  static constexpr uint64_t ChainRoot = 0xC4A1;

  DeterministicEntropySource Entropy{0x5E6};
  std::unique_ptr<RandomSource> Rng;
  /// The "chain" scheme: a pool worker's RequestRng, reseeded before
  /// every request as the pool does, from (ChainRoot, request number).
  std::optional<RequestRng> Chain;
  uint64_t Requests = 0;
  std::atomic<bool> Cancel{false};
  std::unique_ptr<Interpreter> VM;

  /// \p Scheme names the RNG: "" (none), a makeRandomSource scheme, or
  /// "chain". Both engines' sources are seeded alike and stay in step
  /// while every request draws alike.
  SweepVM(Module &M, bool Jit, const std::string &Scheme) {
    if (Scheme == "chain")
      Chain.emplace(RequestRng::Config());
    else
      Rng = makeRandomSource(Scheme, Entropy);
    InterpreterOptions Opts;
    Opts.UseJit = Jit;
    Opts.JitThreshold = 0;
    VM = std::make_unique<Interpreter>(M, Rng.get(), Opts);
    VM->setCancelFlag(&Cancel);
  }

  ExecResult run(uint64_t Fuel, bool CancelSet) {
    if (Chain) {
      Chain->reseed(ChainRoot, Requests);
      VM->setRandomSource(&Chain->source());
    }
    ++Requests;
    VM->setFuel(Fuel);
    Cancel = CancelSet;
    return VM->runRequest("main");
  }

  /// The chain's books so far ("" without a chain).
  std::string books() const {
    return Chain ? booksString(Chain->books()) : std::string();
  }
};

/// Runs `main` of \p M once on a fresh VM (see SweepVM).
inline ExecResult runAt(Module &M, bool Jit, uint64_t Fuel, bool Cancel,
                        const std::string &Scheme = "") {
  return SweepVM(M, Jit, Scheme).run(Fuel, Cancel);
}

/// The sweep: every budget from 1 to 1024 + Steps + 1, with the cancel
/// flag off and on, where Steps is the decoded engine's count for an
/// unlimited run (which may itself trap). Budgets up to Steps + 1 run out
/// of fuel at every instruction, the top Steps + 2 budgets put the first
/// poll point on every instruction, and the entry head sees every residue
/// of FuelLeft & JitCancelMask, so every head's inline test goes both
/// ways. A head whose inline test fails runs the per-instruction path only
/// with the flag set or fuel short of the segment; with the flag clear and
/// enough fuel it still charges the segment at once (jit/JitAbi.h).
inline void expectFuelParity(Module &M, const std::string &Scheme = "") {
  const uint64_t Steps =
      runAt(M, false, InterpreterOptions().Fuel, false, Scheme).Steps;
  SweepVM Decoded(M, false, Scheme), Jit(M, true, Scheme);
  uint64_t Runs = 0, Mismatches = 0;
  for (bool Cancel : {false, true})
    for (uint64_t Fuel = 1; Fuel <= JitCancelMask + Steps + 2; ++Fuel) {
      ExecResult D = Decoded.run(Fuel, Cancel);
      ExecResult J = Jit.run(Fuel, Cancel);
      ++Runs;
      if (D.Trap == J.Trap && D.Steps == J.Steps &&
          D.ReturnValue == J.ReturnValue && D.Message == J.Message &&
          Decoded.books() == Jit.books())
        continue;
      if (++Mismatches <= 5)
        ADD_FAILURE() << "fuel " << Fuel << ", cancel " << Cancel
                      << ": decoded " << trapKindName(D.Trap) << " after "
                      << D.Steps << " steps -> " << D.ReturnValue << " ("
                      << D.Message << ") [" << Decoded.books() << "], jit "
                      << trapKindName(J.Trap) << " after " << J.Steps
                      << " steps -> " << J.ReturnValue << " (" << J.Message
                      << ") [" << Jit.books() << "]";
    }
  EXPECT_EQ(Mismatches, 0u) << "of " << Runs << " budgets";
}

inline std::unique_ptr<Module> parse(const char *IR, bool Hardened = false) {
  ParseResult R = parseModule(IR, "fuel");
  EXPECT_TRUE(R.ok()) << R.Error;
  if (Hardened) {
    PassManager PM;
    PM.addPass(std::make_unique<SmokestackPass>());
    PM.run(*R.M);
  }
  EXPECT_TRUE(verifyModule(*R.M));
  return std::move(R.M);
}

} // namespace jit_sweep
} // namespace smokestack

#endif // SMOKESTACK_TESTS_COMMON_JITSWEEP_H
