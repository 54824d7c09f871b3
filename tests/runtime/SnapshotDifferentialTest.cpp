//===- tests/runtime/SnapshotDifferentialTest.cpp - pool crash repair ----===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pool-level proof of the crash-repair contract. A crashed or dead
// worker is repaired in one way only: its Interpreter is restored from the
// pool's post-load snapshot and its RequestRng is reset. Under chaos
// (crashes, hard deaths, RNG faults), scripted poison requests and
// death-only chaos, every observable — per-request outcomes (index, trap,
// return value, steps, attempts, poisoned) and the complete PoolBooks —
// must be bit-identical at workers = 1/2/8 and across reruns, and the
// campaigns must actually repair workers (pool.snapshot-restores counts
// one restore per contained crash and per restart). That a restore is
// indistinguishable from fresh construction is pinned per component:
// tests/vm/SnapshotTest.cpp for the VM, tests/runtime/RequestRngTest.cpp
// for the RNG.
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include "common/PoolRuns.h"
#include "support/Statistics.h"

#include "gtest/gtest.h"

using namespace smokestack;

namespace {

/// runPool, plus the repair checks: at least one worker was repaired, so
/// the campaign exercised the path under test, and every contained crash
/// and every worker restart was repaired by a snapshot restore.
PoolRun runRepairing(Module &M, const PoolOptions &Opts, unsigned Workers,
                     uint64_t NumRequests) {
  const Statistic *Restores = findStatistic("pool.snapshot-restores");
  EXPECT_NE(Restores, nullptr);
  uint64_t Before = Restores ? Restores->value() : 0;
  PoolRun R = runPool(M, Opts, Workers, NumRequests);
  uint64_t Repairs = R.Books.CrashesContained + R.Books.WorkerRestarts;
  EXPECT_TRUE(R.Books.accountingIdentityHolds()) << "workers=" << Workers;
  EXPECT_GT(Repairs, 0u) << "workers=" << Workers
                         << ": no worker was repaired, the test is vacuous";
  if (Restores) {
    EXPECT_EQ(Restores->value() - Before, Repairs)
        << "workers=" << Workers << ": a repair bypassed the snapshot restore";
  }
  return R;
}

/// Runs \p Opts at workers 1, 2 and 8 plus a rerun at 2 and checks that
/// all four repaired their workers and agree bit for bit.
std::vector<PoolRun> expectInvariantUnderWorkersAndRerun(
    Module &M, const PoolOptions &Opts, uint64_t N) {
  std::vector<PoolRun> Runs;
  for (unsigned Workers : {1u, 2u, 8u, 2u})
    Runs.push_back(runRepairing(M, Opts, Workers, N));
  expectIdenticalRuns(Runs[0], Runs[1], "workers=1 vs workers=2");
  expectIdenticalRuns(Runs[0], Runs[2], "workers=1 vs workers=8");
  expectIdenticalRuns(Runs[1], Runs[3], "rerun with the same root seed");
  return Runs;
}

TEST(SnapshotDifferentialTest, FastPathInvariantUnderWorkerCountAndRerun) {
  Module M("chaos");
  buildRandModule(M);
  std::vector<PoolRun> Runs =
      expectInvariantUnderWorkersAndRerun(M, chaosOptions(), 96);
  // Both repair paths fire, each on the failing worker's own thread:
  // contained crashes and repaired hard deaths.
  EXPECT_GT(Runs[0].Books.CrashesContained, 0u);
  EXPECT_GT(Runs[0].Books.WorkerDeaths, 0u);
  EXPECT_GT(Runs[0].Books.WorkerRestarts, 0u);
}

TEST(SnapshotDifferentialTest,
     PoisonQuarantineInvariantUnderWorkerCountAndRerun) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  Opts.Supervision.AttemptsMin = 3;
  Opts.Supervision.AttemptsMax = 3;
  // Requests with Index % 7 == 3 crash on every attempt: guaranteed
  // quarantines, each after repairs of the worker that served it.
  Opts.PlanForRequest = [](uint64_t Index, FaultPlan &Plan) {
    if (Index % 7 == 3)
      Plan.site(FaultSite::WorkerCrash) = {0.0, 1, 1};
  };
  std::vector<PoolRun> Runs =
      expectInvariantUnderWorkersAndRerun(M, Opts, 70);
  EXPECT_GT(Runs[0].Books.Poisoned, 0u)
      << "no quarantine landed: vacuous test";
}

TEST(SnapshotDifferentialTest,
     DeathOnlyChaosInvariantUnderWorkerCountAndRerun) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  // Hard deaths only: every repair is the dying worker's own death
  // repair → rebuildWorker.
  Opts.FaultTemplate.site(FaultSite::WorkerCrash) = {};
  Opts.FaultTemplate.site(FaultSite::WorkerDeath) = {0.08, 1, 0};
  std::vector<PoolRun> Runs =
      expectInvariantUnderWorkersAndRerun(M, Opts, 96);
  EXPECT_GT(Runs[0].Books.WorkerDeaths, 0u)
      << "no death landed: vacuous test";
  EXPECT_EQ(Runs[0].Books.CrashesContained, 0u);
  EXPECT_EQ(Runs[0].Books.WorkerRestarts, Runs[0].Books.WorkerDeaths);
}

} // namespace
