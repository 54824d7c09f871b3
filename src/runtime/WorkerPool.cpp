//===- runtime/WorkerPool.cpp - Supervised interpreter pool ---------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/WorkerPool.h"

#include "obs/Histogram.h"
#include "obs/MetricsRegistry.h"
#include "obs/Trace.h"
#include "runtime/DeriveSeed.h"
#include "support/Format.h"
#include "support/Statistics.h"

#include <algorithm>
#include <optional>

using namespace smokestack;

namespace {

Statistic NumPoolRequests("pool.requests",
                          "Requests served through a WorkerPool");
Statistic NumPoolWorkers("pool.workers-launched",
                         "Worker threads launched by WorkerPools");
Statistic NumPoolCrashes("pool.crashes-contained",
                         "Worker crashes contained by the supervision layer");
Statistic NumPoolRestarts("pool.worker-restarts",
                          "Dead workers rebuilt to serve again");
Statistic NumPoolRetries("pool.retries",
                         "Requests requeued after a worker crash or death");
Statistic NumPoolShed("pool.requests-shed",
                      "Requests rejected by the admission controller");
Statistic NumPoolPoisoned("pool.requests-poisoned",
                          "Requests quarantined as poisoned");
Statistic NumPoolRestores(
    "pool.snapshot-restores",
    "Worker rebuilds: VM reset to its load state plus an RNG reset");
Histogram RebuildNanos(
    "pool.rebuild-nanos",
    "Worker rebuild latency (obs timing only)");

/// The carrier for an injected FaultSite::WorkerCrash: thrown out of the
/// serve path and caught by the worker's containment loop, exactly like a
/// real bug escaping the interpreter would be.
struct WorkerCrashInjected {};

/// Minimal scope-exit runner: the injector book harvest must fire even
/// when the serve path unwinds (a crashed attempt's probes are part of the
/// request's accounting).
template <typename Fn> class ScopeExit {
public:
  explicit ScopeExit(Fn F) : F(std::move(F)) {}
  ~ScopeExit() { F(); }
  ScopeExit(const ScopeExit &) = delete;
  ScopeExit &operator=(const ScopeExit &) = delete;

private:
  Fn F;
};

} // namespace

RequestBooks &RequestBooks::operator+=(const RequestBooks &O) {
  Requests += O.Requests;
  RequestTraps += O.RequestTraps;
  RequestRecoveries += O.RequestRecoveries;
  Rng += O.Rng;
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    InjectedProbes[S] += O.InjectedProbes[S];
    InjectedEvents[S] += O.InjectedEvents[S];
  }
  CrashesContained += O.CrashesContained;
  WorkerDeaths += O.WorkerDeaths;
  WorkerRestarts += O.WorkerRestarts;
  Retries += O.Retries;
  PoisonedPoolDeath += O.PoisonedPoolDeath;
  return *this;
}

void RequestBooks::addTo(PoolBooks &B) const {
  B.Requests += Requests;
  B.RequestTraps += RequestTraps;
  B.RequestRecoveries += RequestRecoveries;
  B.Rng += Rng;
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    B.InjectedProbes[S] += InjectedProbes[S];
    B.InjectedEvents[S] += InjectedEvents[S];
  }
  B.CrashesContained += CrashesContained;
  B.WorkerDeaths += WorkerDeaths;
  B.WorkerRestarts += WorkerRestarts;
  B.Retries += Retries;
  B.PoisonedPoolDeath += PoisonedPoolDeath;
}

uint64_t PoolBooks::totalInjectedProbes() const {
  uint64_t Total = 0;
  for (uint64_t P : InjectedProbes)
    Total += P;
  return Total;
}

uint64_t PoolBooks::totalInjectedEvents() const {
  uint64_t Total = 0;
  for (uint64_t E : InjectedEvents)
    Total += E;
  return Total;
}

void PoolBooks::exportMetrics(MetricsRegistry &R) const {
  auto G = [&R](const char *Name, const char *Help, uint64_t V) {
    R.addGauge(Name, Help, V);
  };
  G("pool.books.requests", "VM requests served", Requests);
  G("pool.books.request-traps", "VM requests that trapped", RequestTraps);
  G("pool.books.request-recoveries", "Post-trap state recoveries",
    RequestRecoveries);
  G("pool.books.submitted", "submit() calls", Submitted);
  G("pool.books.accepted", "Requests admitted into the queue", Accepted);
  G("pool.books.completed", "Requests served to a terminal outcome",
    Completed);
  G("pool.books.shed", "Requests rejected at admission", Shed);
  G("pool.books.shed-queue-full", "Sheds by ShedNewest on a full queue",
    ShedQueueFull);
  G("pool.books.shed-closed", "Sheds because the queue was closed",
    ShedClosed);
  G("pool.books.poisoned", "Requests quarantined as poisoned", Poisoned);
  G("pool.books.poisoned-pool-death",
    "Poisoned subset abandoned on pool death", PoisonedPoolDeath);
  G("pool.books.crashes-contained", "Worker crashes contained",
    CrashesContained);
  G("pool.books.worker-deaths", "Simulated hard worker deaths",
    WorkerDeaths);
  G("pool.books.worker-restarts", "Dead workers rebuilt to serve again",
    WorkerRestarts);
  G("pool.books.retries", "Requeues after a crash or death", Retries);
  G("pool.books.rng.draws-served", "Words drawn from the resilient chains",
    Rng.DrawsServed);
  G("pool.books.rng.degraded-draws", "Draws served degraded",
    Rng.DegradedDraws);
  G("pool.books.rng.fallback-draws", "Draws served by the AES fallback",
    Rng.FallbackDraws);
  G("pool.books.rng.fail-closed-draws", "Draws refused fail-closed",
    Rng.FailClosedDraws);
  G("pool.books.rng.failovers", "Primary-to-fallback failovers",
    Rng.Failovers);
  G("pool.books.rng.recoveries", "Failbacks to the primary",
    Rng.Recoveries);
  G("pool.books.rng.drng-retry-failures", "RDRAND step failures",
    Rng.DrngRetryFailures);
  G("pool.books.rng.drng-failure-events", "Whole-draw DRNG failures",
    Rng.DrngFailureEvents);
  G("pool.books.rng.aes-rekeys", "AES-CTR rekeys performed", Rng.AesRekeys);
  G("pool.books.rng.failed-rekeys", "AES-CTR rekeys that failed",
    Rng.FailedRekeys);
  G("pool.books.rng.stale-key-draws", "Draws under a stale AES key",
    Rng.StaleKeyDraws);
  G("pool.books.rng.unkeyed-draws", "Draws refused for lack of a key",
    Rng.UnkeyedDraws);
  G("pool.books.rng.buffer-refills", "Batched buffer refills",
    Rng.BufferRefills);
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    const char *Site = faultSiteName(static_cast<FaultSite>(S));
    R.addGauge(formatString("pool.books.faults.probes.%s", Site),
               "Fault probes injected at this site", InjectedProbes[S]);
    R.addGauge(formatString("pool.books.faults.events.%s", Site),
               "Fault events injected at this site", InjectedEvents[S]);
  }
}

WorkerPool::WorkerPool(Module &M, PoolOptions Opts)
    : Opts(Opts), Shared(M), Queue(Opts.QueueCapacity) {
  unsigned Count = Opts.Workers;
  if (Count == 0) {
    Count = std::thread::hardware_concurrency();
    if (Count == 0)
      Count = 1;
  }
  for (unsigned I = 0; I != Count; ++I) {
    auto W = std::make_unique<Worker>(I, this->Opts.Rng);
    W->VM = std::make_unique<Interpreter>(M, nullptr, this->Opts.InterpOpts);
    W->VM->setSharedProgram(&Shared);
    W->VM->setCancelFlag(&CancelAll);
    if (this->Opts.Tracer)
      W->Ring = &this->Opts.Tracer->ringFor(I);
    Workers.push_back(std::move(W));
  }
  LiveWorkers.store(Workers.size(), std::memory_order_relaxed);
  findEntryPoint(M, this->Opts.Function, 0, EntryError);
}

WorkerPool::~WorkerPool() {
  if (!Finished)
    finish();
}

bool WorkerPool::start(std::string *Err) {
  if (Started || Finished)
    return Started;
  // Every request calls the entry point with no arguments: refuse one
  // that cannot take that call instead of trapping BadCall per request.
  if (!EntryError.empty()) {
    if (Err)
      *Err = "entry point: " + EntryError;
    Queue.close();
    return false;
  }
  Started = true;
  for (auto &W : Workers) {
    W->Thread = std::thread([this, Raw = W.get()] { workerMain(*Raw); });
    ++NumPoolWorkers;
  }
  return true;
}

bool WorkerPool::submit(PoolRequest Request) {
  SubmittedCount.fetch_add(1, std::memory_order_relaxed);

  Pending Item;
  Item.Req = std::move(Request);
  if (Opts.Tracer)
    Item.EnqueueNs = obsNowNanos();
  if (Opts.Admission.Policy == AdmissionOptions::ShedPolicy::ShedNewest) {
    switch (Queue.tryPush(Item)) {
    case QueuePush::Ok:
      AcceptedCount.fetch_add(1, std::memory_order_relaxed);
      return true;
    case QueuePush::Full:
      ShedFullCount.fetch_add(1, std::memory_order_relaxed);
      ++NumPoolShed;
      return false;
    case QueuePush::Closed:
      break;
    }
    ShedClosedCount.fetch_add(1, std::memory_order_relaxed);
    ++NumPoolShed;
    return false;
  }

  if (!Queue.push(std::move(Item))) {
    ShedClosedCount.fetch_add(1, std::memory_order_relaxed);
    ++NumPoolShed;
    return false;
  }
  AcceptedCount.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void WorkerPool::shutdownNow() {
  CancelAll.store(true, std::memory_order_relaxed);
  Queue.close();
}

bool WorkerPool::drainWithin(unsigned Millis) {
  Queue.close();
  if (!Started)
    return Queue.size() == 0;
  return Queue.waitIdleFor(Millis);
}

uint32_t WorkerPool::attemptBudget(uint64_t Index) const {
  const SupervisionOptions &S = Opts.Supervision;
  uint32_t Min = std::max<uint32_t>(1, S.AttemptsMin);
  uint32_t Max = std::max(Min, S.AttemptsMax);
  if (Max == Min)
    return Min;
  uint64_t Span = static_cast<uint64_t>(Max) - Min + 1;
  return Min + static_cast<uint32_t>(
                   deriveSeed(Opts.RootSeed, Index, SeedLane::RetryBudget) %
                   Span);
}

void WorkerPool::recordPoisoned(std::vector<PoolOutcome> &Sink, uint64_t Index,
                                uint32_t Attempts, const RequestBooks &Delta) {
  PoolOutcome O;
  O.Index = Index;
  O.Trap = TrapKind::WorkerCrash;
  O.Attempts = Attempts;
  O.Poisoned = true;
  Sink.push_back(O);
  ++NumPoolPoisoned;
  if (Opts.OnOutcome)
    Opts.OnOutcome(O);
  if (Opts.OnOutcomeBooks)
    Opts.OnOutcomeBooks(O, Delta);
}

void WorkerPool::pushSpan(Worker &W, const TraceSpan &S) {
  if (!W.Ring)
    return;
  W.Ring->push(S);
  if (W.Ring->size() >= W.Ring->capacity() / 2)
    Opts.Tracer->collect();
}

void WorkerPool::rebuildWorker(Worker &W) {
  // Bank the doomed components' books first: a reset Interpreter and a
  // reset RequestRng restart their counters at zero, and the pre-crash
  // totals are part of the pool's accounting.
  W.VmCarry.Requests += W.VM->requestsServed();
  W.VmCarry.Traps += W.VM->requestTraps();
  W.VmCarry.Recoveries += W.VM->requestRecoveries();
  W.RngCarry += W.Rng->books();

  bool Timed = obsTimingEnabled();
  uint64_t Start = Timed ? obsNowNanos() : 0;
  // Return the existing VM to its load state and reset the RNG in place:
  // bitwise equivalent to constructing both anew, at O(bytes dirtied)
  // instead of fresh mappings and re-faulted pages — under chaos this is
  // the dominant cost of a contained crash or a repaired death.
  // Wiring (shared program, cancel flag) survives the reset.
  W.VM->resetToLoad();
  W.Rng->reset();
  ++NumPoolRestores;
  if (Timed)
    RebuildNanos.record(obsNowNanos() - Start);
}

void WorkerPool::retryOrQuarantine(Worker &W, Pending &Item) {
  uint32_t Burned = Item.Attempt + 1;
  if (Burned < attemptBudget(Item.Req.Index)) {
    ++W.Retries;
    // The retry carries the failed attempts' accounting forward in
    // Item.Delta; a fresh Pending here would silently zero it.
    Item.Delta.Retries += 1;
    Item.Attempt = Burned;
    if (Opts.Tracer)
      Item.EnqueueNs = obsNowNanos();
    Queue.pushPriority(std::move(Item));
  } else {
    recordPoisoned(W.Outcomes, Item.Req.Index, Burned, Item.Delta);
    pushSpan(W, {Item.Req.Index, W.Id, Burned, SpanDisposition::Poisoned, 0,
                 0, 0, 0, 0});
  }
  Queue.taskDone();
}

void WorkerPool::abandonBacklog(Worker &W) {
  while (std::optional<Pending> Item = Queue.tryPop()) {
    Item->Delta.PoisonedPoolDeath += 1;
    recordPoisoned(W.Outcomes, Item->Req.Index, Item->Attempt, Item->Delta);
    ++W.PoisonedPoolDeath;
    pushSpan(W, {Item->Req.Index, W.Id, Item->Attempt,
                 SpanDisposition::Poisoned, 0, 0, 0, 0, 0});
    Queue.taskDone();
  }
}

void WorkerPool::workerMain(Worker &W) {
  while (std::optional<Pending> Item = Queue.pop()) {
    ServeVerdict Verdict;
    try {
      Verdict = serveRequest(W, *Item);
    } catch (...) {
      // Containment: any exception escaping the serve path — injected or
      // real — costs this worker its attempt, never its thread.
      Verdict = ServeVerdict::Crashed;
    }

    switch (Verdict) {
    case ServeVerdict::Served:
      Queue.taskDone();
      break;
    case ServeVerdict::Crashed:
      ++W.CrashEvents;
      Item->Delta.CrashesContained += 1;
      rebuildWorker(W);
      pushSpan(W, {Item->Req.Index, W.Id, Item->Attempt + 1,
                   SpanDisposition::Crashed, 0, 0, 0, 0, 0});
      retryOrQuarantine(W, *Item);
      break;
    case ServeVerdict::Died: {
      // A simulated hard death, repaired on this thread. The death, and
      // the restart it earns if the pool-wide budget allows one, are
      // attributed to the request the worker died holding, so aggregate
      // books stay an exact sum of per-request deltas.
      pushSpan(W, {Item->Req.Index, W.Id, Item->Attempt + 1,
                   SpanDisposition::Died, 0, 0, 0, 0, 0});
      ++W.Deaths;
      Item->Delta.WorkerDeaths += 1;
      bool Restart = RestartsUsed.fetch_add(1, std::memory_order_relaxed) <
                     Opts.Supervision.MaxWorkerRestarts;
      if (Restart) {
        ++W.Restarts;
        Item->Delta.WorkerRestarts += 1;
      }
      retryOrQuarantine(W, *Item);
      if (Restart) {
        rebuildWorker(W);
        break;
      }
      // Out of restart budget: this worker retires. The last one to go
      // leaves nobody to serve, so it declares the pool dead: cancel any
      // run still in flight, close the queue so blocked and future
      // submitters fail fast instead of deadlocking, and drain the
      // backlog as poisoned — the accounting identity outlives the pool.
      if (LiveWorkers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        CancelAll.store(true, std::memory_order_relaxed);
        Queue.close();
        abandonBacklog(W);
      }
      return;
    }
    }
  }
}

WorkerPool::ServeVerdict WorkerPool::serveRequest(Worker &W, Pending &Item) {
  const PoolRequest &Request = Item.Req;

  // Span skeleton, gated on the ring pointer — the whole tracing cost of
  // a disabled pool is this one null test. Spans only observe: every
  // value below either comes from the deterministic books (steps, draws)
  // or feeds no decision (the nanosecond fields), so tracing can never
  // perturb outcomes or digests.
  TraceRing *Ring = W.Ring;
  TraceSpan Span;
  uint64_t DrawsBefore = 0;
  if (Ring) {
    Span.RequestIndex = Request.Index;
    Span.Worker = W.Id;
    Span.Attempt = Item.Attempt + 1;
    uint64_t Now = obsNowNanos();
    if (Item.EnqueueNs && Now > Item.EnqueueNs)
      Span.QueueNanos = Now - Item.EnqueueNs;
    DrawsBefore = W.Rng->books().DrawsServed;
  }

  // Per-attempt fault injector, installed thread-locally so this worker's
  // probes consume only this attempt's decision streams. The scope covers
  // the chain reseed too: initial AES keying must be able to fail. Retry
  // attempts re-salt the plan seed (attempt 0 keeps the legacy derivation,
  // so pre-supervision digests remain valid) — a retry faces fresh fault
  // luck rather than deterministically replaying the crash that killed the
  // previous attempt.
  std::optional<FaultInjector> Injector;
  std::optional<FaultScope> Scope;
  if (Opts.InjectFaults) {
    FaultPlan Plan = Opts.FaultTemplate;
    Plan.Seed = deriveSeed(Opts.RootSeed, Request.Index, SeedLane::FaultPlan);
    if (Item.Attempt != 0)
      Plan.Seed = deriveSeed(Plan.Seed, Item.Attempt, SeedLane::RetrySalt);
    if (Opts.PlanForRequest)
      Opts.PlanForRequest(Request.Index, Plan);
    Injector.emplace(Plan);
    Scope.emplace(*Injector);
  }

  // Per-attempt delta capture: everything this attempt moves lands in
  // Item.Delta, folded exactly once — explicitly before the terminal-state
  // hooks fire (they must see the attempt's full delta), and from the
  // scope-exit runner on the crash/death unwind paths. The before/after
  // subtraction is safe because it runs strictly before rebuildWorker
  // banks-and-resets the VM and RNG counters.
  const uint64_t VmReqBefore = W.VM->requestsServed();
  const uint64_t VmTrapBefore = W.VM->requestTraps();
  const uint64_t VmRecBefore = W.VM->requestRecoveries();
  const RequestRng::Books RngBefore = W.Rng->books();
  bool DeltaFolded = false;
  auto FoldDelta = [&] {
    if (DeltaFolded)
      return;
    DeltaFolded = true;
    RequestBooks &D = Item.Delta;
    D.Requests += W.VM->requestsServed() - VmReqBefore;
    D.RequestTraps += W.VM->requestTraps() - VmTrapBefore;
    D.RequestRecoveries += W.VM->requestRecoveries() - VmRecBefore;
    RequestRng::Books RngNow = W.Rng->books();
    RngNow -= RngBefore;
    D.Rng += RngNow;
    if (!Injector)
      return;
    for (unsigned S = 0; S != NumFaultSites; ++S) {
      uint64_t P = Injector->injectedProbes(static_cast<FaultSite>(S));
      uint64_t E = Injector->injectedEvents(static_cast<FaultSite>(S));
      W.InjectedProbes[S] += P;
      D.InjectedProbes[S] += P;
      W.InjectedEvents[S] += E;
      D.InjectedEvents[S] += E;
    }
  };
  ScopeExit Harvest([&] { FoldDelta(); });

  // Crash/death probes come BEFORE the reseed: a doomed attempt consumes
  // no request randomness, so the RNG lanes stay attempt-independent and
  // the serving attempt's draws are bit-identical whether or not earlier
  // attempts crashed.
  if (faultProbe(FaultSite::WorkerDeath))
    return ServeVerdict::Died;
  if (faultProbe(FaultSite::WorkerCrash))
    throw WorkerCrashInjected{};

  uint64_t ReseedStart = Ring ? obsNowNanos() : 0;
  W.Rng->reseed(Opts.RootSeed, Request.Index);
  if (Ring)
    Span.ReseedNanos = obsNowNanos() - ReseedStart;
  W.VM->setRandomSource(&W.Rng->source());
  // Inputs are COPIED into the VM: the request must keep them in case this
  // attempt crashes and a retry has to replay them.
  for (const std::vector<uint8_t> &Record : Request.Inputs)
    W.VM->pushInput(Record);

  uint64_t ExecStart = Ring ? obsNowNanos() : 0;
  ExecResult E = W.VM->runRequest(Opts.Function);
  if (Ring) {
    Span.ExecNanos = obsNowNanos() - ExecStart;
    Span.Steps = E.Steps;
    Span.RngDraws = W.Rng->books().DrawsServed - DrawsBefore;
  }
  // Unconsumed inputs must not leak into the next request this worker
  // serves (the request boundary only clears them on a trap).
  W.VM->clearInput();

  if (E.Trap == TrapKind::WorkerCrash) {
    // The cooperative cancel flag fired mid-run: the pool is in abnormal
    // shutdown. The run was cut short, so its result is not a completion;
    // book it as poisoned-by-pool-death.
    FoldDelta();
    Item.Delta.PoisonedPoolDeath += 1;
    recordPoisoned(W.Outcomes, Request.Index, Item.Attempt + 1, Item.Delta);
    W.Outcomes.back().Steps = E.Steps;
    ++W.PoisonedPoolDeath;
    if (Ring) {
      Span.Disposition = SpanDisposition::Cancelled;
      pushSpan(W, Span);
    }
    return ServeVerdict::Served;
  }

  W.Outcomes.push_back(
      {Request.Index, E.Trap, E.ReturnValue, E.Steps, Item.Attempt + 1, false});
  ++NumPoolRequests;
  CompletedCount.fetch_add(1, std::memory_order_relaxed);
  FoldDelta();
  if (Opts.OnOutcome)
    Opts.OnOutcome(W.Outcomes.back());
  if (Opts.OnOutcomeBooks)
    Opts.OnOutcomeBooks(W.Outcomes.back(), Item.Delta);
  if (Ring) {
    Span.Disposition = E.Trap != TrapKind::None ? SpanDisposition::Trapped
                                                : SpanDisposition::Completed;
    pushSpan(W, Span);
  }
  return ServeVerdict::Served;
}

uint64_t WorkerPool::residentBytes() const {
  uint64_t Bytes = 0;
  for (const auto &W : Workers)
    Bytes += W->VM->memory().residentBytes();
  return Bytes;
}

std::vector<PoolOutcome> WorkerPool::finish() {
  std::vector<PoolOutcome> Outcomes;
  if (Finished)
    return Outcomes;
  Finished = true;
  Queue.close();

  if (Started) {
    // After close, every worker leaves its serve loop once the backlog
    // (retries included) has reached terminal states; a retired worker
    // has already returned.
    for (auto &W : Workers)
      W->Thread.join();
  } else {
    // finish() before start(), or after a failed one: nobody ever served,
    // but submit() may have queued work. Quarantine it so the accounting
    // identity holds rather than silently dropping accepted requests.
    // Worker 0's thread never ran, so its books and ring are ours.
    abandonBacklog(*Workers.front());
  }

  // Final lossless drain: the workers are gone, so every span they
  // produced is visible and the rings go quiescent here.
  if (Opts.Tracer)
    Opts.Tracer->collect();

  for (auto &W : Workers) {
    Outcomes.insert(Outcomes.end(), W->Outcomes.begin(), W->Outcomes.end());
    Books.Requests += W->VmCarry.Requests + W->VM->requestsServed();
    Books.RequestTraps += W->VmCarry.Traps + W->VM->requestTraps();
    Books.RequestRecoveries += W->VmCarry.Recoveries + W->VM->requestRecoveries();
    Books.Rng += W->RngCarry;
    Books.Rng += W->Rng->books();
    for (unsigned S = 0; S != NumFaultSites; ++S) {
      Books.InjectedProbes[S] += W->InjectedProbes[S];
      Books.InjectedEvents[S] += W->InjectedEvents[S];
    }
    Books.CrashesContained += W->CrashEvents;
    Books.WorkerDeaths += W->Deaths;
    Books.WorkerRestarts += W->Restarts;
    Books.Retries += W->Retries;
    Books.PoisonedPoolDeath += W->PoisonedPoolDeath;
  }

  Books.Submitted = SubmittedCount.load(std::memory_order_relaxed);
  Books.Accepted = AcceptedCount.load(std::memory_order_relaxed);
  Books.Completed = CompletedCount.load(std::memory_order_relaxed);
  Books.ShedQueueFull = ShedFullCount.load(std::memory_order_relaxed);
  Books.ShedClosed = ShedClosedCount.load(std::memory_order_relaxed);
  Books.Shed = Books.ShedQueueFull + Books.ShedClosed;

  for (const PoolOutcome &O : Outcomes)
    if (O.Poisoned) {
      ++Books.Poisoned;
      Books.PoisonedIndices.push_back(O.Index);
    }
  std::sort(Books.PoisonedIndices.begin(), Books.PoisonedIndices.end());

  NumPoolCrashes += Books.CrashesContained;
  NumPoolRestarts += Books.WorkerRestarts;
  NumPoolRetries += Books.Retries;

  std::sort(Outcomes.begin(), Outcomes.end(),
            [](const PoolOutcome &A, const PoolOutcome &B) {
              return A.Index < B.Index;
            });
  return Outcomes;
}
