//===- tests/common/PoolRuns.h - Pool test harness --------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every pool, supervision and crash-repair test shares: the
/// two-draw driver and spin modules, the chaos fault plan, one pool run
/// over requests 0..N-1, and the comparison behind the determinism
/// contract — two runs agree on every outcome and every book that is
/// invariant under the worker count.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_TESTS_COMMON_POOLRUNS_H
#define SMOKESTACK_TESTS_COMMON_POOLRUNS_H

#include "runtime/WorkerPool.h"

#include "ir/IRBuilder.h"
#include "rng/RdRand.h"

#include <gtest/gtest.h>

#include <vector>

namespace smokestack {

/// driver(): folds two smokestack.rand draws into a byte. The per-request
/// RNG chain makes the return value a pure function of (RootSeed, Index);
/// under an injected whole-chain blackout the first draw raises a
/// recoverable RandomnessFailure trap.
inline void buildRandModule(Module &M) {
  IRBuilder B(M);
  Function *Rand = M.getOrInsertDeclaration("smokestack.rand", B.i64(), {});
  Function *Driver = M.createFunction("driver", B.i64(), {});
  B.setInsertPoint(Driver->createBlock("entry"));
  Value *A = B.call(Rand, {});
  Value *C = B.call(Rand, {});
  B.ret(B.and_(B.add(A, C), B.constI64(0xff)));
}

/// spin(): a counted loop of \p Iterations. Long enough, it outlives the
/// cooperative cancel poll (every 1024 fuel steps); huge, it hangs until
/// the fuel budget or a cancel ends it.
inline void buildSpinModule(Module &M, uint64_t Iterations) {
  IRBuilder B(M);
  Function *F = M.createFunction("spin", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Done = F->createBlock("done");
  B.setInsertPoint(Entry);
  AllocaInst *Ctr = B.alloca_(B.i64(), "ctr");
  B.store(B.constI64(0), Ctr);
  B.br(Loop);
  B.setInsertPoint(Loop);
  Value *V = B.load(B.i64(), Ctr);
  Value *Next = B.add(V, B.constI64(1));
  B.store(Next, Ctr);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, Next, B.constI64(Iterations)),
           Loop, Done);
  B.setInsertPoint(Done);
  B.ret(B.constI64(13));
}

/// Full chaos over driver(): RNG degradation, contained worker crashes and
/// hard worker deaths, with a 2..5 attempt budget per request.
inline PoolOptions chaosOptions(uint64_t RootSeed = 7) {
  PoolOptions Opts;
  Opts.RootSeed = RootSeed;
  Opts.Function = "driver";
  Opts.QueueCapacity = 32;
  Opts.InjectFaults = true;
  Opts.FaultTemplate.site(FaultSite::RdRandStep) = {0.15,
                                                    RdRandSource::RetryLimit,
                                                    0};
  Opts.FaultTemplate.site(FaultSite::RekeyEntropy) = {0.4, 1, 0};
  Opts.FaultTemplate.site(FaultSite::WorkerCrash) = {0.2, 1, 0};
  Opts.FaultTemplate.site(FaultSite::WorkerDeath) = {0.05, 1, 0};
  Opts.Supervision.AttemptsMin = 2;
  Opts.Supervision.AttemptsMax = 5;
  return Opts;
}

struct PoolRun {
  std::vector<PoolOutcome> Outcomes; ///< Sorted by index (finish()).
  PoolBooks Books;
};

/// Submits requests 0..NumRequests-1 to a pool of \p Workers built from
/// \p Opts and returns its outcomes and books.
inline PoolRun runPool(Module &M, PoolOptions Opts, unsigned Workers,
                       uint64_t NumRequests) {
  Opts.Workers = Workers;
  WorkerPool Pool(M, Opts);
  Pool.start();
  for (uint64_t I = 0; I != NumRequests; ++I)
    EXPECT_TRUE(Pool.submit({I, {}}));
  PoolRun R;
  R.Outcomes = Pool.finish();
  R.Books = Pool.books();
  return R;
}

inline void expectSameRngBooks(const RequestRng::Books &A,
                               const RequestRng::Books &B, const char *What) {
  EXPECT_EQ(A.DrawsServed, B.DrawsServed) << What;
  EXPECT_EQ(A.DegradedDraws, B.DegradedDraws) << What;
  EXPECT_EQ(A.FallbackDraws, B.FallbackDraws) << What;
  EXPECT_EQ(A.FailClosedDraws, B.FailClosedDraws) << What;
  EXPECT_EQ(A.Failovers, B.Failovers) << What;
  EXPECT_EQ(A.Recoveries, B.Recoveries) << What;
  EXPECT_EQ(A.DrngRetryFailures, B.DrngRetryFailures) << What;
  EXPECT_EQ(A.DrngFailureEvents, B.DrngFailureEvents) << What;
  EXPECT_EQ(A.AesRekeys, B.AesRekeys) << What;
  EXPECT_EQ(A.FailedRekeys, B.FailedRekeys) << What;
  EXPECT_EQ(A.StaleKeyDraws, B.StaleKeyDraws) << What;
  EXPECT_EQ(A.UnkeyedDraws, B.UnkeyedDraws) << What;
  EXPECT_EQ(A.BufferRefills, B.BufferRefills) << What;
}

/// Every outcome field and every PoolBooks field must match.
inline void expectIdenticalRuns(const PoolRun &A, const PoolRun &B,
                                const char *What) {
  ASSERT_EQ(A.Outcomes.size(), B.Outcomes.size()) << What;
  for (size_t I = 0; I != A.Outcomes.size(); ++I) {
    const PoolOutcome &X = A.Outcomes[I], &Y = B.Outcomes[I];
    EXPECT_EQ(X.Index, Y.Index) << What << " @" << I;
    EXPECT_EQ(X.Trap, Y.Trap) << What << " @" << I;
    EXPECT_EQ(X.ReturnValue, Y.ReturnValue) << What << " @" << I;
    EXPECT_EQ(X.Steps, Y.Steps) << What << " @" << I;
    EXPECT_EQ(X.Attempts, Y.Attempts) << What << " @" << I;
    EXPECT_EQ(X.Poisoned, Y.Poisoned) << What << " @" << I;
  }
  const PoolBooks &X = A.Books, &Y = B.Books;
  EXPECT_EQ(X.Requests, Y.Requests) << What;
  EXPECT_EQ(X.RequestTraps, Y.RequestTraps) << What;
  EXPECT_EQ(X.RequestRecoveries, Y.RequestRecoveries) << What;
  expectSameRngBooks(X.Rng, Y.Rng, What);
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    EXPECT_EQ(X.InjectedProbes[S], Y.InjectedProbes[S]) << What << " " << S;
    EXPECT_EQ(X.InjectedEvents[S], Y.InjectedEvents[S]) << What << " " << S;
  }
  EXPECT_EQ(X.Submitted, Y.Submitted) << What;
  EXPECT_EQ(X.Accepted, Y.Accepted) << What;
  EXPECT_EQ(X.Completed, Y.Completed) << What;
  EXPECT_EQ(X.Shed, Y.Shed) << What;
  EXPECT_EQ(X.ShedQueueFull, Y.ShedQueueFull) << What;
  EXPECT_EQ(X.ShedClosed, Y.ShedClosed) << What;
  EXPECT_EQ(X.Poisoned, Y.Poisoned) << What;
  EXPECT_EQ(X.PoisonedPoolDeath, Y.PoisonedPoolDeath) << What;
  EXPECT_EQ(X.CrashesContained, Y.CrashesContained) << What;
  EXPECT_EQ(X.WorkerDeaths, Y.WorkerDeaths) << What;
  EXPECT_EQ(X.WorkerRestarts, Y.WorkerRestarts) << What;
  EXPECT_EQ(X.Retries, Y.Retries) << What;
  EXPECT_EQ(X.PoisonedIndices, Y.PoisonedIndices) << What;
}

} // namespace smokestack

#endif // SMOKESTACK_TESTS_COMMON_POOLRUNS_H
