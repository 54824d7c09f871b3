//===- tests/runtime/SupervisorTest.cpp - supervision layer tests ---------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pool's supervision layer (DESIGN.md §10): crash containment and
// worker rebuild, bounded retries with poison quarantine, worker-death
// repair on the dying worker's own thread, unrecoverable-pool-death
// semantics (submit fails instead of deadlocking), ShedNewest load
// shedding, cooperative cancellation,
// the exact accounting identity Submitted == Completed + Shed + Poisoned,
// and lifecycle-misuse hardening.
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include "common/PoolRuns.h"
#include "obs/Trace.h"

#include "gtest/gtest.h"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace smokestack;

namespace {

TEST(SupervisorTest, CrashesAreContainedAndRetriedToCompletion) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  // Crashes only (no deaths): with a generous attempt budget nearly every
  // request should still complete; a few may exhaust the budget.
  Opts.FaultTemplate.site(FaultSite::WorkerDeath) = {};
  Opts.Supervision.AttemptsMin = 6;
  Opts.Supervision.AttemptsMax = 6;

  PoolRun R = runPool(M, Opts, 4, 128);
  EXPECT_TRUE(R.Books.accountingIdentityHolds());
  EXPECT_EQ(R.Books.Submitted, 128u);
  EXPECT_EQ(R.Outcomes.size(), 128u) << "every request reached a terminal state";
  EXPECT_GT(R.Books.CrashesContained, 0u) << "no crash landed: vacuous test";
  EXPECT_GT(R.Books.Retries, 0u);
  EXPECT_EQ(R.Books.WorkerDeaths, 0u);
  // p(crash)=0.2 over 6 independent attempts: poisoning a request takes
  // p^6 = 6.4e-5 luck; none of the 128 should be quarantined.
  EXPECT_EQ(R.Books.Poisoned, 0u);
  EXPECT_EQ(R.Books.Completed, 128u);
  // Retried requests must report the attempts they actually burned.
  bool SawRetriedOutcome = false;
  for (const PoolOutcome &O : R.Outcomes)
    SawRetriedOutcome = SawRetriedOutcome || O.Attempts > 1;
  EXPECT_TRUE(SawRetriedOutcome);
}

TEST(SupervisorTest, PoisonRequestsAreQuarantinedAfterBudget) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  Opts.FaultTemplate.site(FaultSite::WorkerCrash) = {};
  Opts.FaultTemplate.site(FaultSite::WorkerDeath) = {};
  Opts.Supervision.AttemptsMin = 3;
  Opts.Supervision.AttemptsMax = 3;
  // Requests with Index % 7 == 3 crash on every attempt, deterministically:
  // true poison requests in the DOP sense — no retry budget can save them.
  Opts.PlanForRequest = [](uint64_t Index, FaultPlan &Plan) {
    if (Index % 7 == 3)
      Plan.site(FaultSite::WorkerCrash) = {0.0, 1, 1};
  };

  constexpr uint64_t N = 70;
  PoolRun R = runPool(M, Opts, 3, N);
  EXPECT_TRUE(R.Books.accountingIdentityHolds());
  ASSERT_EQ(R.Outcomes.size(), N);

  std::vector<uint64_t> ExpectedPoison;
  for (uint64_t I = 0; I != N; ++I)
    if (I % 7 == 3)
      ExpectedPoison.push_back(I);
  EXPECT_EQ(R.Books.PoisonedIndices, ExpectedPoison);
  EXPECT_EQ(R.Books.Poisoned, ExpectedPoison.size());

  for (const PoolOutcome &O : R.Outcomes) {
    if (O.Index % 7 == 3) {
      EXPECT_TRUE(O.Poisoned) << O.Index;
      EXPECT_EQ(O.Trap, TrapKind::WorkerCrash) << O.Index;
      EXPECT_EQ(O.Attempts, 3u) << "must burn the whole budget";
      EXPECT_FALSE(O.ok());
    } else {
      EXPECT_FALSE(O.Poisoned) << O.Index;
      EXPECT_EQ(O.Attempts, 1u);
    }
  }
}

TEST(SupervisorTest, WorkerDeathsAreRepairedBySupervisor) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  Opts.FaultTemplate.site(FaultSite::WorkerCrash) = {};
  Opts.FaultTemplate.site(FaultSite::WorkerDeath) = {0.08, 1, 0};

  constexpr uint64_t N = 96;
  PoolRun R = runPool(M, Opts, 3, N);
  EXPECT_TRUE(R.Books.accountingIdentityHolds());
  EXPECT_EQ(R.Outcomes.size(), N) << "deaths must not lose requests";
  EXPECT_GT(R.Books.WorkerDeaths, 0u) << "no death landed: vacuous test";
  EXPECT_EQ(R.Books.WorkerRestarts, R.Books.WorkerDeaths)
      << "every corpse is replaced while the restart budget lasts";
}

TEST(SupervisorTest, TinyTraceRingsStayLosslessUnderDeaths) {
  // Workers drain the trace rings themselves once one is half full, so
  // even an 8-slot ring loses nothing, and every repaired death leaves
  // exactly one Died span.
  Module M("chaos");
  buildRandModule(M);
  TraceRecorder Recorder(/*RingCapacity=*/8);
  PoolOptions Opts = chaosOptions();
  Opts.Tracer = &Recorder;

  constexpr uint64_t N = 2000;
  PoolRun R = runPool(M, Opts, 1, N);
  EXPECT_TRUE(R.Books.accountingIdentityHolds());
  ASSERT_EQ(R.Outcomes.size(), N);
  EXPECT_GT(R.Books.WorkerDeaths, 0u) << "no death landed: vacuous test";
  EXPECT_EQ(Recorder.droppedSpans(), 0u);

  uint64_t Died = 0, Terminal = 0;
  for (const TraceSpan &S : Recorder.take()) {
    Died += S.Disposition == SpanDisposition::Died;
    Terminal += S.Disposition != SpanDisposition::Died &&
                S.Disposition != SpanDisposition::Crashed;
  }
  EXPECT_EQ(Died, R.Books.WorkerDeaths);
  EXPECT_EQ(Terminal, N) << "one terminal span per request";
}

TEST(SupervisorTest, ChaosOutcomesInvariantUnderWorkerCountAndRerun) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();

  constexpr uint64_t N = 96;
  PoolRun One = runPool(M, Opts, 1, N);
  PoolRun Two = runPool(M, Opts, 2, N);
  PoolRun Eight = runPool(M, Opts, 8, N);
  PoolRun Again = runPool(M, Opts, 2, N);

  // The chaos must actually bite for the invariance to mean anything.
  EXPECT_GT(One.Books.CrashesContained, 0u);
  EXPECT_GT(One.Books.WorkerDeaths, 0u);
  EXPECT_TRUE(One.Books.accountingIdentityHolds());

  expectIdenticalRuns(One, Two, "workers=1 vs workers=2");
  expectIdenticalRuns(One, Eight, "workers=1 vs workers=8");
  expectIdenticalRuns(Two, Again, "rerun with same root seed");
}

TEST(SupervisorTest, UnrecoverablePoolDeathFailsSubmitInsteadOfDeadlocking) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 1;
  Opts.Function = "driver";
  Opts.QueueCapacity = 4;
  Opts.InjectFaults = true;
  // Every attempt kills the worker outright, and there is no restart
  // budget: the pool is unrecoverable by construction.
  Opts.FaultTemplate.site(FaultSite::WorkerDeath) = {0.0, 1, 1};
  Opts.Supervision.MaxWorkerRestarts = 0;

  WorkerPool Pool(M, Opts);
  Pool.start();

  // Keep submitting until the dead pool's closed queue rejects us. If the
  // retiring worker failed to close the queue this would deadlock on the full
  // queue (the driver would flag the hang); the bound is generous slack.
  uint64_t Submitted = 0;
  bool SawReject = false;
  for (uint64_t I = 0; I != 10'000; ++I) {
    ++Submitted;
    if (!Pool.submit({I, {}})) {
      SawReject = true;
      break;
    }
  }
  EXPECT_TRUE(SawReject) << "submit() must start failing once the pool dies";

  std::vector<PoolOutcome> Outcomes = Pool.finish();
  const PoolBooks &B = Pool.books();
  EXPECT_TRUE(B.accountingIdentityHolds());
  EXPECT_EQ(B.Submitted, Submitted);
  EXPECT_EQ(B.WorkerDeaths, 1u);
  EXPECT_EQ(B.WorkerRestarts, 0u);
  EXPECT_EQ(B.Completed, 0u) << "nobody ever served";
  EXPECT_GT(B.Poisoned, 0u) << "the backlog is quarantined, not lost";
  // The dead worker's request still had attempt budget, so it was requeued
  // — and then drained as pool-death poison along with the backlog.
  EXPECT_EQ(B.Poisoned, B.PoisonedPoolDeath);
  EXPECT_EQ(B.Retries, 1u);
  EXPECT_EQ(Outcomes.size(), B.Poisoned);
}

TEST(SupervisorTest, ServedWorkerRetriesInPlaceAndRetiresPastTheBudget) {
  // startServing/serve: each body serves its own requests on its own
  // worker. A crash retries in place until the attempt budget quarantines
  // the request; a death past the restart budget retires the worker,
  // which then answers every request poisoned. The queue is closed
  // throughout, so submit() sheds.
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  Opts.InjectFaults = true;
  Opts.Supervision.AttemptsMin = 3;
  Opts.Supervision.AttemptsMax = 3;
  Opts.Supervision.MaxWorkerRestarts = 0;
  Opts.PlanForRequest = [](uint64_t Index, FaultPlan &Plan) {
    if (Index == 1) // crashes on every attempt
      Plan.site(FaultSite::WorkerCrash) = {0.0, 1, 1};
    if (Index == 12) // kills worker 1, which has no restart to take
      Plan.site(FaultSite::WorkerDeath) = {0.0, 1, 1};
  };
  WorkerPool Pool(M, Opts);
  std::vector<PoolOutcome> Seen[2];
  ASSERT_TRUE(Pool.startServing([&](unsigned W) {
    for (uint64_t I = W * 10; I != W * 10 + 5; ++I)
      Seen[W].push_back(Pool.serve(W, {I, {}}));
  }));
  EXPECT_FALSE(Pool.submit({99, {}})) << "the bodies own the workers";
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  const PoolBooks &B = Pool.books();
  EXPECT_TRUE(B.accountingIdentityHolds());
  EXPECT_EQ(B.Submitted, 11u);
  EXPECT_EQ(B.ShedClosed, 1u);
  ASSERT_EQ(Outcomes.size(), 10u);

  // Worker 0: index 1 crashed on all three attempts, in place, and was
  // quarantined; the worker kept serving.
  for (const PoolOutcome &O : Seen[0]) {
    EXPECT_EQ(O.Poisoned, O.Index == 1) << O.Index;
    EXPECT_EQ(O.Attempts, O.Index == 1 ? 3u : 1u) << O.Index;
  }
  // Worker 1: 10 and 11 served; 12 killed it, so 12 and everything after
  // is poisoned by the dead worker.
  for (const PoolOutcome &O : Seen[1]) {
    EXPECT_EQ(O.Poisoned, O.Index >= 12) << O.Index;
    EXPECT_EQ(O.Attempts, O.Index == 12 ? 1u : O.Index > 12 ? 0u : 1u)
        << O.Index;
  }
  EXPECT_EQ(B.CrashesContained, 3u);
  EXPECT_EQ(B.WorkerDeaths, 1u);
  EXPECT_EQ(B.WorkerRestarts, 0u);
  EXPECT_EQ(B.Completed, 6u);
  EXPECT_EQ(B.Poisoned, 4u);
  EXPECT_EQ(B.PoisonedPoolDeath, 3u);
  EXPECT_EQ(B.PoisonedIndices, (std::vector<uint64_t>{1, 12, 13, 14}));
}

TEST(SupervisorTest, EscapedHookExceptionIsContainedAndQuarantined) {
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  Opts.InjectFaults = true;
  Opts.Supervision.AttemptsMin = 2;
  Opts.Supervision.AttemptsMax = 2;
  // A real bug, not an injected probe: the per-request hook throws for one
  // index. The pool must survive it and quarantine the request.
  Opts.PlanForRequest = [](uint64_t Index, FaultPlan &) {
    if (Index == 11)
      throw std::runtime_error("hook bug");
  };

  constexpr uint64_t N = 24;
  PoolRun R;
  {
    WorkerPool Pool(M, Opts);
    Pool.start();
    for (uint64_t I = 0; I != N; ++I)
      EXPECT_TRUE(Pool.submit({I, {}}));
    R.Outcomes = Pool.finish();
    R.Books = Pool.books();
  }
  EXPECT_TRUE(R.Books.accountingIdentityHolds());
  ASSERT_EQ(R.Outcomes.size(), N);
  EXPECT_EQ(R.Books.Poisoned, 1u);
  ASSERT_EQ(R.Books.PoisonedIndices.size(), 1u);
  EXPECT_EQ(R.Books.PoisonedIndices[0], 11u);
  EXPECT_EQ(R.Books.CrashesContained, 2u) << "one per attempt";
  for (const PoolOutcome &O : R.Outcomes)
    if (O.Index != 11) {
      EXPECT_TRUE(O.ok()) << O.Index;
    }
}

TEST(SupervisorTest, ShedNewestPolicyShedsOnFullQueueAndKeepsBooks) {
  Module M("chaos");
  buildSpinModule(M, 20'000); // slow enough that the queue actually fills
  PoolOptions Opts;
  Opts.Workers = 1;
  Opts.Function = "spin";
  Opts.QueueCapacity = 2;
  Opts.Admission.Policy = AdmissionOptions::ShedPolicy::ShedNewest;

  WorkerPool Pool(M, Opts);
  Pool.start();
  constexpr uint64_t N = 64;
  uint64_t Accepted = 0;
  for (uint64_t I = 0; I != N; ++I)
    if (Pool.submit({I, {}}))
      ++Accepted;
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  const PoolBooks &B = Pool.books();

  EXPECT_TRUE(B.accountingIdentityHolds());
  EXPECT_EQ(B.Submitted, N);
  EXPECT_EQ(B.Accepted, Accepted);
  EXPECT_GT(B.ShedQueueFull, 0u) << "one slow worker behind a capacity-2 "
                                    "queue must shed some of 64 rapid submits";
  EXPECT_EQ(Outcomes.size(), Accepted);
}

TEST(SupervisorTest, ShutdownNowCancelsInFlightRunsAsPoisoned) {
  Module M("chaos");
  buildSpinModule(M, 50'000'000); // far longer than the test will wait
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "spin";
  Opts.QueueCapacity = 16;

  WorkerPool Pool(M, Opts);
  Pool.start();
  constexpr uint64_t N = 8;
  for (uint64_t I = 0; I != N; ++I)
    EXPECT_TRUE(Pool.submit({I, {}}));
  // Let the workers get into the spin, then pull the plug. The cooperative
  // cancel poll (every 1024 steps) turns the endless runs into
  // TrapKind::WorkerCrash, booked as poisoned; finish() then drains the
  // queued remainder the same way instead of running it for minutes.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Pool.shutdownNow();
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  const PoolBooks &B = Pool.books();

  EXPECT_TRUE(B.accountingIdentityHolds());
  EXPECT_EQ(B.Submitted, N);
  EXPECT_EQ(B.Completed, 0u) << "no run can finish 50M steps here";
  EXPECT_EQ(B.Poisoned, N);
  EXPECT_EQ(B.PoisonedPoolDeath, N);
  ASSERT_EQ(Outcomes.size(), N);
  for (const PoolOutcome &O : Outcomes) {
    EXPECT_TRUE(O.Poisoned);
    EXPECT_EQ(O.Trap, TrapKind::WorkerCrash);
  }
}

TEST(SupervisorTest, PerRequestDeltasSumToAggregateBooks) {
  // The foundation under process-shard accounting: the per-request deltas
  // serve() hands out, summed, must reproduce the pool's own aggregate
  // books exactly — under chaos, where crashes, deaths, retries, and
  // injected faults all have to land on some request's delta.
  Module M("chaos");
  buildRandModule(M);
  PoolOptions Opts = chaosOptions();
  constexpr uint64_t N = 96;
  constexpr unsigned Workers = 3;

  // Worker W serves the indices congruent to W, as a shard child's worker
  // serves the requests on its own channel.
  RequestBooks PerWorker[Workers];
  uint64_t Hooked[Workers] = {};
  Opts.Workers = Workers;
  WorkerPool Pool(M, Opts);
  ASSERT_TRUE(Pool.startServing([&](unsigned W) {
    for (uint64_t I = W; I < N; I += Workers) {
      RequestBooks D;
      Pool.serve(W, {I, {}}, &D);
      PerWorker[W] += D;
      ++Hooked[W];
    }
  }));
  Pool.finish();
  const PoolBooks &B = Pool.books();
  RequestBooks Sum;
  for (unsigned W = 0; W != Workers; ++W)
    Sum += PerWorker[W];
  EXPECT_EQ(Hooked[0] + Hooked[1] + Hooked[2], N)
      << "one delta per terminal outcome";

  // The chaos must bite for the sum to be a meaningful reconstruction.
  EXPECT_GT(B.CrashesContained, 0u);
  EXPECT_GT(B.WorkerDeaths, 0u);

  PoolBooks R;
  Sum.addTo(R);
  EXPECT_EQ(R.Requests, B.Requests);
  EXPECT_EQ(R.RequestTraps, B.RequestTraps);
  EXPECT_EQ(R.RequestRecoveries, B.RequestRecoveries);
  EXPECT_EQ(R.CrashesContained, B.CrashesContained);
  EXPECT_EQ(R.WorkerDeaths, B.WorkerDeaths);
  EXPECT_EQ(R.WorkerRestarts, B.WorkerRestarts);
  EXPECT_EQ(R.Retries, B.Retries);
  EXPECT_EQ(R.PoisonedPoolDeath, B.PoisonedPoolDeath);
  EXPECT_EQ(R.Rng.DrawsServed, B.Rng.DrawsServed);
  EXPECT_EQ(R.Rng.DegradedDraws, B.Rng.DegradedDraws);
  EXPECT_EQ(R.Rng.FallbackDraws, B.Rng.FallbackDraws);
  EXPECT_EQ(R.Rng.FailClosedDraws, B.Rng.FailClosedDraws);
  EXPECT_EQ(R.Rng.Failovers, B.Rng.Failovers);
  EXPECT_EQ(R.Rng.Recoveries, B.Rng.Recoveries);
  EXPECT_EQ(R.Rng.DrngRetryFailures, B.Rng.DrngRetryFailures);
  EXPECT_EQ(R.Rng.DrngFailureEvents, B.Rng.DrngFailureEvents);
  EXPECT_EQ(R.Rng.AesRekeys, B.Rng.AesRekeys);
  EXPECT_EQ(R.Rng.FailedRekeys, B.Rng.FailedRekeys);
  EXPECT_EQ(R.Rng.StaleKeyDraws, B.Rng.StaleKeyDraws);
  EXPECT_EQ(R.Rng.UnkeyedDraws, B.Rng.UnkeyedDraws);
  EXPECT_EQ(R.Rng.BufferRefills, B.Rng.BufferRefills);
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    EXPECT_EQ(R.InjectedProbes[S], B.InjectedProbes[S]) << "site " << S;
    EXPECT_EQ(R.InjectedEvents[S], B.InjectedEvents[S]) << "site " << S;
  }
}

// ---- Lifecycle-misuse hardening ----------------------------------------

TEST(WorkerPoolLifecycleTest, FinishBeforeStartQuarantinesQueuedRequests) {
  Module M("pool");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  WorkerPool Pool(M, Opts);

  // Submitting before start() queues the work (nobody serves yet).
  EXPECT_TRUE(Pool.submit({0, {}}));
  EXPECT_TRUE(Pool.submit({1, {}}));

  std::vector<PoolOutcome> Outcomes = Pool.finish();
  const PoolBooks &B = Pool.books();
  EXPECT_TRUE(B.accountingIdentityHolds());
  ASSERT_EQ(Outcomes.size(), 2u);
  EXPECT_TRUE(Outcomes[0].Poisoned);
  EXPECT_TRUE(Outcomes[1].Poisoned);
  EXPECT_EQ(B.Poisoned, 2u);
  EXPECT_EQ(B.PoisonedPoolDeath, 2u);
  EXPECT_EQ(B.Completed, 0u);

  // start() after finish() is a hardened no-op; submit stays closed.
  Pool.start();
  EXPECT_FALSE(Pool.submit({2, {}}));
  EXPECT_EQ(Pool.books().accountingIdentityHolds(), true);
}

TEST(WorkerPoolLifecycleTest, DoubleStartAndDoubleFinishAreIdempotent) {
  Module M("pool");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  WorkerPool Pool(M, Opts);
  Pool.start();
  Pool.start(); // must not relaunch threads or crash
  for (uint64_t I = 0; I != 6; ++I)
    EXPECT_TRUE(Pool.submit({I, {}}));
  EXPECT_EQ(Pool.finish().size(), 6u);
  EXPECT_EQ(Pool.finish().size(), 0u) << "second finish() is empty, not UB";
  EXPECT_TRUE(Pool.books().accountingIdentityHolds());
}

TEST(WorkerPoolLifecycleTest, SubmitBeforeStartIsServedAfterStart) {
  Module M("pool");
  buildRandModule(M);
  PoolOptions Opts;
  Opts.Workers = 2;
  Opts.Function = "driver";
  WorkerPool Pool(M, Opts);
  EXPECT_TRUE(Pool.submit({0, {}}));
  Pool.start();
  EXPECT_TRUE(Pool.submit({1, {}}));
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  ASSERT_EQ(Outcomes.size(), 2u);
  EXPECT_TRUE(Outcomes[0].ok());
  EXPECT_TRUE(Outcomes[1].ok());
  EXPECT_TRUE(Pool.books().accountingIdentityHolds());
}

} // namespace
