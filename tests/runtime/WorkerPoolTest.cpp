//===- tests/runtime/WorkerPoolTest.cpp - pool determinism tests ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The worker pool's replay contract: the sorted outcome stream and the
// aggregate books are a pure function of (module, options, root seed,
// request stream) — bit-identical for any worker count and across reruns.
// Also covers the shared decoded program, queue shutdown semantics, the
// pool's thread budget, and the entry-point check at start().
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include "common/PoolRuns.h"
#include "common/Threads.h"
#include "core/SmokestackPass.h"
#include "ir/Parser.h"

#include "gtest/gtest.h"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

using namespace smokestack;

namespace {

/// RNG faults over driver(), plus permanent DRNG death for the last
/// quarter of the request space: with rekey entropy also failing, some of
/// those requests fail closed.
PoolOptions faultedTailOptions(uint64_t NumRequests) {
  PoolOptions Opts;
  Opts.RootSeed = 7;
  Opts.Function = "driver";
  Opts.InjectFaults = true;
  Opts.FaultTemplate.site(FaultSite::RdRandStep) = {0.15,
                                                    RdRandSource::RetryLimit,
                                                    0};
  Opts.FaultTemplate.site(FaultSite::RekeyEntropy) = {0.4, 1, 0};
  Opts.PlanForRequest = [NumRequests](uint64_t Index, FaultPlan &Plan) {
    if (Index >= NumRequests - NumRequests / 4)
      Plan.site(FaultSite::RdRandDeath) = {0.0, 1, 1};
  };
  return Opts;
}

/// One pool run over NumRequests with a faulted tail.
PoolRun runPool(Module &M, unsigned Workers, uint64_t NumRequests) {
  return runPool(M, faultedTailOptions(NumRequests), Workers, NumRequests);
}

TEST(WorkerPoolTest, AggregateBooksInvariantUnderWorkerCount) {
  Module M("pool");
  buildRandModule(M);
  constexpr uint64_t N = 64;

  PoolRun One = runPool(M, 1, N);
  PoolRun Two = runPool(M, 2, N);
  PoolRun Eight = runPool(M, 8, N);

  // The run must actually exercise the interesting paths, or the
  // invariance claim is vacuous.
  EXPECT_EQ(One.Books.Requests, N);
  EXPECT_GT(One.Books.Rng.FallbackDraws, 0u) << "no step faults landed";
  EXPECT_GT(One.Books.RequestTraps, 0u) << "no fail-closed trap landed";
  EXPECT_EQ(One.Books.RequestTraps, One.Books.RequestRecoveries);

  expectIdenticalRuns(One, Two, "workers=1 vs workers=2");
  expectIdenticalRuns(One, Eight, "workers=1 vs workers=8");
}

TEST(WorkerPoolTest, RerunWithSameRootSeedIsBitIdentical) {
  Module M("pool");
  buildRandModule(M);
  PoolRun A = runPool(M, 4, 48);
  PoolRun B = runPool(M, 4, 48);
  expectIdenticalRuns(A, B, "rerun");
}

TEST(WorkerPoolTest, OutcomesAreSortedAndComplete) {
  Module M("pool");
  buildRandModule(M);
  constexpr uint64_t N = 32;
  PoolRun R = runPool(M, 3, N);
  ASSERT_EQ(R.Outcomes.size(), N);
  for (uint64_t I = 0; I != N; ++I)
    EXPECT_EQ(R.Outcomes[I].Index, I);
}

TEST(WorkerPoolTest, SharedProgramCoversEveryDefinition) {
  Module M("pool");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  WorkerPool Pool(M, Opts);
  // Only definitions are decoded; smokestack.rand is a declaration.
  EXPECT_EQ(Pool.sharedProgram().numFunctions(), 1u);
  const Function *Driver = M.getFunction("driver");
  ASSERT_NE(Driver, nullptr);
  EXPECT_NE(Pool.sharedProgram().find(Driver), nullptr);

  Pool.start();
  for (uint64_t I = 0; I != 8; ++I)
    Pool.submit({I, {}});
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  ASSERT_EQ(Outcomes.size(), 8u);
  for (const PoolOutcome &O : Outcomes)
    EXPECT_TRUE(O.ok());
}

TEST(WorkerPoolTest, SubmitAfterFinishIsRejected) {
  Module M("pool");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  WorkerPool Pool(M, Opts);
  Pool.start();
  EXPECT_TRUE(Pool.submit({0, {}}));
  EXPECT_EQ(Pool.finish().size(), 1u);
  EXPECT_FALSE(Pool.submit({1, {}})) << "the queue is closed after finish()";
}

TEST(WorkerPoolTest, StartAddsExactlyOneThreadPerWorker) {
  // Workers repair their own crashes and deaths, so the pool never runs a
  // thread beyond its workers — not at start(), and not after deaths.
  Module M("pool");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  Opts.Workers = 3;
  // A sanitizer runtime may add a helper thread at the process's first
  // thread creation; get that out of the way before counting.
  std::thread([] {}).join();
  unsigned Before = settledThreadCount();
  {
    WorkerPool Pool(M, Opts);
    ASSERT_TRUE(Pool.start());
    EXPECT_EQ(settledThreadCount(), Before + 3)
        << "one thread per worker, no more";
    for (uint64_t I = 0; I != 96; ++I)
      EXPECT_TRUE(Pool.submit({I, {}}));
    // No worker leaves its loop before the queue closes in finish().
    EXPECT_EQ(settledThreadCount(), Before + 3);
    EXPECT_EQ(Pool.finish().size(), 96u);
    EXPECT_GT(Pool.books().WorkerDeaths, 0u) << "no death landed: vacuous";
    EXPECT_EQ(Pool.books().WorkerRestarts, Pool.books().WorkerDeaths);
  }
  EXPECT_EQ(settledThreadCount(), Before);
}

TEST(WorkerPoolTest, WorkersAreResidentOnlyForTouchedPages) {
  // Eight hardened Listing-1 workers: each is resident for its globals,
  // P-BOX rows and the stack pages its frames reach, not for its 37 MiB
  // of segment mappings.
  std::ifstream In(SMOKESTACK_EXAMPLES_DIR "/listing1.ir");
  std::ostringstream Text;
  Text << In.rdbuf();
  ParseResult Parsed = parseModule(Text.str(), "listing1.ir");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  Module &M = *Parsed.M;
  PassManager PM;
  PM.addPass(std::make_unique<SmokestackPass>());
  PM.run(M);

  PoolOptions Opts;
  Opts.Workers = 8;
  Opts.RootSeed = 7;
  Opts.Function = "driver";
  WorkerPool Pool(M, Opts);
  ASSERT_TRUE(Pool.start());
  for (uint64_t I = 0; I != 64; ++I)
    EXPECT_TRUE(Pool.submit({I, {}}));
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  ASSERT_EQ(Outcomes.size(), 64u);
  for (const PoolOutcome &O : Outcomes)
    EXPECT_TRUE(O.ok());
  EXPECT_GT(Pool.residentBytes(), 0u);
  EXPECT_LT(Pool.residentBytes(), 2u << 20);
}

/// Every request calls Opts.Function with no arguments, so start() must
/// refuse one that cannot take that call: it launches nothing and closes
/// the queue. A request queued before start() is quarantined by finish();
/// one submitted after is shed as ShedClosed.
void expectStartRefused(const char *Entry, const std::string &Why) {
  Module M("pool");
  buildRandModule(M); // also declares smokestack.rand
  IRBuilder B(M);
  Function *Leaf = M.createFunction("leaf", B.i64(), {B.i64()});
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.ret(B.constI64(3));

  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = Entry;
  unsigned Before = settledThreadCount();
  WorkerPool Pool(M, Opts);
  EXPECT_TRUE(Pool.submit({0, {}}));
  std::string Err;
  EXPECT_FALSE(Pool.start(&Err));
  EXPECT_EQ(Err, "entry point: " + Why);
  EXPECT_EQ(settledThreadCount(), Before)
      << "a refused start launches nothing";
  EXPECT_FALSE(Pool.start()) << "a second start is refused the same way";
  EXPECT_FALSE(Pool.submit({1, {}})) << "a refused start closes the queue";

  std::vector<PoolOutcome> Outcomes = Pool.finish();
  const PoolBooks &Books = Pool.books();
  EXPECT_TRUE(Books.accountingIdentityHolds());
  EXPECT_EQ(Books.Submitted, 2u);
  EXPECT_EQ(Books.ShedClosed, 1u);
  EXPECT_EQ(Books.Completed, 0u);
  EXPECT_EQ(Books.PoisonedPoolDeath, 1u);
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Index, 0u);
  EXPECT_TRUE(Outcomes[0].Poisoned);
}

TEST(WorkerPoolTest, StartRefusesMissingEntryPoint) {
  expectStartRefused("nosuch", "no function definition named 'nosuch'");
}

TEST(WorkerPoolTest, StartRefusesDeclarationOnlyEntryPoint) {
  expectStartRefused("smokestack.rand",
                     "no function definition named 'smokestack.rand'");
}

TEST(WorkerPoolTest, StartRefusesEntryPointWithArguments) {
  expectStartRefused("leaf", "'leaf' takes 1 argument(s), 0 given");
}

} // namespace
