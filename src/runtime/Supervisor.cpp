//===- runtime/Supervisor.cpp - Worker liveness supervisor ----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Supervisor.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"

#include <chrono>
#include <cstdint>
#include <optional>

using namespace smokestack;

namespace {

Histogram RestartNanos(
    "pool.restart-nanos",
    "Supervisor latency per worker death: join, salvage, relaunch "
    "(obs timing only)");

} // namespace

Supervisor::Supervisor(WorkerPool &Pool) : Pool(Pool) {}

Supervisor::~Supervisor() { stop(); }

void Supervisor::start() {
  if (Running)
    return;
  Running = true;
  StopRequested = false;
  SeenHeartbeat.assign(Pool.Workers.size(), 0);
  AlarmedHeartbeat.assign(Pool.Workers.size(), UINT64_MAX);
  Retired.assign(Pool.Workers.size(), false);
  Thread = std::thread([this] { supervisorMain(); });
}

void Supervisor::stop() {
  if (!Running)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    StopRequested = true;
  }
  Wake.notify_all();
  if (Thread.joinable())
    Thread.join();
  Running = false;
}

void Supervisor::notifyDeath(unsigned Id) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Inbox.push_back(Id);
  }
  Wake.notify_all();
}

void Supervisor::supervisorMain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    bool Woken = Wake.wait_for(
        Lock, std::chrono::milliseconds(Pool.Opts.Supervision.HeartbeatMillis),
        [this] { return StopRequested || !Inbox.empty(); });

    // Drain every pending death before honoring a stop: a death event owns
    // an in-flight queue item, and stop() is only legal once those have
    // reached terminal states — this loop is what gets them there.
    while (!Inbox.empty()) {
      unsigned Id = Inbox.front();
      Inbox.pop_front();
      Lock.unlock();
      handleDeath(Id);
      Lock.lock();
    }

    if (StopRequested)
      return;
    if (!Woken) {
      Lock.unlock();
      sampleHeartbeats();
      // Paced ring drain: with the default heartbeat period the rings
      // never come close to filling between wakes, which is what makes
      // steady-state collection lossless (tracked by spans-dropped).
      if (TraceRecorder *T = Pool.Opts.Tracer)
        T->collect();
      Lock.lock();
    }
  }
}

void Supervisor::handleDeath(unsigned Id) {
  bool Timed = obsTimingEnabled();
  uint64_t Start = Timed ? obsNowNanos() : 0;
  WorkerPool::Worker &W = *Pool.Workers[Id];

  // Join the corpse first: the join is the happens-before edge that makes
  // the dead worker's stash, books, and VM safe to touch from this thread.
  if (W.Thread.joinable())
    W.Thread.join();
  ++Deaths;

  // Drain the corpse's ring now (the join made every push visible): a
  // dead worker's spans — including the Died span it wrote on the way
  // down — are never lost, even if the worker is retired for good.
  if (TraceRecorder *T = Pool.Opts.Tracer)
    T->collect();

  // Salvage the request the worker died holding. Requeue-or-poison comes
  // BEFORE taskDone so the queue never looks idle while the request's fate
  // is undecided.
  std::optional<WorkerPool::Pending> Item;
  {
    std::lock_guard<std::mutex> Lock(W.StashMutex);
    Item.swap(W.Stash);
  }
  const bool WillRestart =
      RestartsUsed < Pool.Opts.Supervision.MaxWorkerRestarts;
  if (Item) {
    // The death (and the restart it earns, if any) is attributed to the
    // request the worker died holding, so aggregate supervision books stay
    // an exact sum of per-request deltas.
    Item->Delta.WorkerDeaths += 1;
    if (WillRestart)
      Item->Delta.WorkerRestarts += 1;
    uint32_t Burned = Item->Attempt + 1;
    if (Burned < Pool.attemptBudget(Item->Req.Index)) {
      ++Retries;
      Item->Delta.Retries += 1;
      WorkerPool::Pending Retry;
      Retry.Req = std::move(Item->Req);
      Retry.Attempt = Burned;
      Retry.Delta = std::move(Item->Delta);
      if (Pool.Opts.Tracer)
        Retry.EnqueueNs = obsNowNanos();
      Pool.Queue.pushPriority(std::move(Retry));
    } else {
      Pool.recordPoisoned(Outcomes, Item->Req.Index, Burned, &Item->Delta);
      if (TraceRecorder *T = Pool.Opts.Tracer)
        T->recordExternal({Item->Req.Index, Id, Burned,
                           SpanDisposition::Poisoned, 0, 0, 0, 0, 0});
    }
    Pool.Queue.taskDone();
  }

  if (WillRestart) {
    // Rebuild on this thread, then relaunch: the thread create publishes
    // the Interpreter/RequestRng, restored in place, to the new worker
    // thread.
    ++RestartsUsed;
    Pool.rebuildWorker(W);
    W.State.store(WorkerPool::WorkerState::Idle, std::memory_order_relaxed);
    W.Thread = std::thread([this, &W] { Pool.workerMain(W); });
  } else {
    Retired[Id] = true;
    bool AllRetired = true;
    for (size_t I = 0, E = Retired.size(); I != E; ++I)
      AllRetired = AllRetired && Retired[I];
    if (AllRetired)
      declarePoolDead();
  }

  if (Timed)
    RestartNanos.record(obsNowNanos() - Start);
}

void Supervisor::declarePoolDead() {
  // Nobody is left to serve. Cancel whatever might still be running (there
  // is nothing, but the flag also covers future misuse), close the queue so
  // blocked and future submitters fail fast instead of deadlocking, and
  // drain the backlog as poisoned — the accounting identity outlives the
  // pool.
  PoolDead = true;
  Pool.CancelAll.store(true, std::memory_order_relaxed);
  Pool.Queue.close();
  while (std::optional<WorkerPool::Pending> Item = Pool.Queue.tryPop()) {
    Item->Delta.PoisonedPoolDeath += 1;
    Pool.recordPoisoned(Outcomes, Item->Req.Index, Item->Attempt,
                        &Item->Delta);
    ++PoisonedPoolDeath;
    if (TraceRecorder *T = Pool.Opts.Tracer)
      T->recordExternal({Item->Req.Index, 0, Item->Attempt,
                         SpanDisposition::Poisoned, 0, 0, 0, 0, 0});
    Pool.Queue.taskDone();
  }
}

void Supervisor::sampleHeartbeats() {
  for (size_t I = 0, E = Pool.Workers.size(); I != E; ++I) {
    WorkerPool::Worker &W = *Pool.Workers[I];
    uint64_t Beat = W.Heartbeat.load(std::memory_order_relaxed);
    bool Serving = W.State.load(std::memory_order_relaxed) ==
                   WorkerPool::WorkerState::Serving;
    // One alarm per stall: a worker Serving the same heartbeat across two
    // samples is stuck (or just slow — which is why this only keeps books).
    if (Serving && Beat == SeenHeartbeat[I] && AlarmedHeartbeat[I] != Beat) {
      ++StallAlarms;
      AlarmedHeartbeat[I] = Beat;
    }
    SeenHeartbeat[I] = Beat;
  }
}
