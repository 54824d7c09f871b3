//===- runtime/WorkerPool.h - Supervised interpreter pool ------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-worker request engine: N interpreter workers serve requests
/// from a bounded MPMC queue over one shared, immutable module. Every
/// worker repairs its own failures, so a pool of N workers runs exactly N
/// threads (DESIGN.md §10). An owner that reads its own requests runs
/// each worker thread itself instead (startServing) and serves through the
/// same path with serve(): no queue, and no wake between threads. Two
/// owners do: the thread-mode socket server, whose every worker is a
/// serving loop over the connections it owns (DESIGN.md §13), and a
/// process shard's child, whose every worker reads its own IPC channel
/// and writes its own outcome frames (DESIGN.md §15).
///
/// Ownership map (the concurrency model, DESIGN.md §9):
///
///   shared, immutable, zero-sync on the hot path
///     - the Module (IR, P-BOX tables as read-only globals)
///     - the DecodedProgram (global address map + decoded functions),
///       built once in the constructor and published read-only
///   per-worker, mutable, never shared
///     - one Interpreter with its own SimMemory arena
///     - one RequestRng chain (entropy streams, AES key schedule,
///       buffered words)
///     - one FaultInjector per request attempt, installed via the
///       thread-local FaultScope
///   synchronized
///     - the request queue (mutex + condvars; see MpmcQueue.h)
///     - the restart budget and the live-worker count (atomics)
///     - process-wide Statistic counters (sharded relaxed atomics)
///     - the pool's per-request admission/completion atomics
///
/// Supervision model. Any exception escaping a worker's serve path — the
/// injected FaultSite::WorkerCrash, or a real bug in a hook or the VM — is
/// contained: the worker's Interpreter, SimMemory arena, and RequestRng
/// are rebuilt in place and the thread keeps serving. The crashed request
/// is retried — requeued on the queue's priority lane, or run again in
/// place under serve() — with a bounded, per-request attempt budget
/// derived from (RootSeed, Index, SeedLane::RetryBudget);
/// once the budget is exhausted the request is recorded as *poisoned* and
/// never retried again (quarantine). A simulated hard death
/// (FaultSite::WorkerDeath — models a segfaulting or OS-killed worker) is
/// repaired the same way on the dying worker's own thread: the death is
/// booked, the request is retried or quarantined, and the worker is
/// rebuilt while the pool's restart budget lasts. Past the budget the
/// worker retires. The last queue worker to retire declares the pool dead: it
/// cancels in-flight runs, closes the queue — so submit() returns false
/// instead of deadlocking — and drains the backlog as poisoned, keeping
/// the books exact.
///
/// Accounting identity, exact at finish():
///
///   Submitted == Completed + Shed + Poisoned
///   Shed      == ShedQueueFull + ShedClosed
///
/// Every submitted request reaches exactly one terminal state; nothing is
/// dropped silently, nothing is double-counted.
///
/// Determinism contract: every request's outcome and counter deltas are a
/// pure function of (module, options, root seed, request index, request
/// inputs) — per-request seeds come from runtime/DeriveSeed.h, the
/// per-attempt chain/injector are rebuilt from them, and retry attempt K
/// re-salts only the fault plan (SeedLane::RetrySalt) while the RNG lanes
/// stay attempt-independent — so the sorted outcome list (including
/// Attempts and Poisoned) and the aggregate books are bit-identical for
/// ANY worker count and any scheduling, and identical across reruns.
/// Preconditions: the served function must not carry state across requests
/// through writable globals, all workers use the same InterpreterOptions,
/// shedding is disabled (ShedNewest decides from the racy queue depth and
/// is deterministic only per-run), and the restart budget exceeds the
/// injected deaths (a retired worker changes nothing per-request, but an
/// unrecoverable pool poisons the backlog, which depends on queue depth at
/// death time).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RUNTIME_WORKERPOOL_H
#define SMOKESTACK_RUNTIME_WORKERPOOL_H

#include "faults/FaultInjector.h"
#include "runtime/MpmcQueue.h"
#include "runtime/RequestRng.h"
#include "vm/DecodedProgram.h"
#include "vm/Interpreter.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace smokestack {

class MetricsRegistry;
class TraceRecorder;
class TraceRing;
struct TraceSpan;

/// One unit of work: run the pool's function once, with these input
/// records queued for the get_input builtins. Index is the request's
/// global sequence number; it alone determines the request's randomness.
struct PoolRequest {
  uint64_t Index = 0;
  std::vector<std::vector<uint8_t>> Inputs;
};

/// The outcome of one request, keyed by its index.
struct PoolOutcome {
  uint64_t Index = 0;
  TrapKind Trap = TrapKind::None;
  uint64_t ReturnValue = 0;
  uint64_t Steps = 0;
  /// Serve attempts consumed (1 = served first time; >1 = retried after
  /// crashes; budget-many for a poisoned request).
  uint32_t Attempts = 1;
  /// True when the request exhausted its attempt budget (or the pool died
  /// under it) and was quarantined instead of served.
  bool Poisoned = false;

  bool ok() const { return Trap == TrapKind::None && !Poisoned; }
};

struct PoolBooks;

/// The per-request accounting delta: every digest-relevant PoolBooks
/// counter a single request moved, across ALL of its attempts (including
/// attempts that crashed or died with their worker). By the determinism
/// contract each delta is a pure function of (RootSeed, Index), and the
/// worker-count-invariant aggregate books are exactly the sum of the
/// per-request deltas — which is what lets a shard child process ship its
/// books one request at a time over IPC: a SIGKILLed child loses nothing
/// the already-delivered deltas have not banked, and replaying its
/// in-flight requests reproduces the lost partial work bit for bit
/// (DESIGN.md §15).
struct RequestBooks {
  // VM request boundary.
  uint64_t Requests = 0;
  uint64_t RequestTraps = 0;
  uint64_t RequestRecoveries = 0;
  // Randomness chain.
  RequestRng::Books Rng;
  // Fault injection, per site.
  uint64_t InjectedProbes[NumFaultSites] = {};
  uint64_t InjectedEvents[NumFaultSites] = {};
  // Supervision events attributed to this request.
  uint64_t CrashesContained = 0;
  uint64_t WorkerDeaths = 0;
  uint64_t WorkerRestarts = 0;
  uint64_t Retries = 0;
  uint64_t PoisonedPoolDeath = 0;

  RequestBooks &operator+=(const RequestBooks &O);
  /// Accumulates this delta into an aggregate ledger (the shard parent's
  /// re-assembly path; admission/terminal counters are the caller's).
  void addTo(PoolBooks &B) const;
};

/// Aggregate accounting across all workers. Every field is a sum of
/// per-request deltas, so it is invariant under worker count (given
/// shedding off and sufficient restart budget).
struct PoolBooks {
  // VM request boundary.
  uint64_t Requests = 0;
  uint64_t RequestTraps = 0;
  uint64_t RequestRecoveries = 0;

  // Randomness chain.
  RequestRng::Books Rng;

  // Fault injection, per site.
  uint64_t InjectedProbes[NumFaultSites] = {};
  uint64_t InjectedEvents[NumFaultSites] = {};

  // Admission / terminal-state accounting (the identity).
  uint64_t Submitted = 0;     ///< submit() calls.
  uint64_t Accepted = 0;      ///< Admitted into the queue.
  uint64_t Completed = 0;     ///< Served to a terminal outcome (incl. traps).
  uint64_t Shed = 0;          ///< Rejected at admission; sum of the two below.
  uint64_t ShedQueueFull = 0; ///< Rejected by ShedNewest on a full queue.
  uint64_t ShedClosed = 0;    ///< Rejected because the queue was closed.
  uint64_t Poisoned = 0;      ///< Quarantined after exhausting retries or pool death.
  uint64_t PoisonedPoolDeath = 0; ///< Subset of Poisoned: abandoned, not retried out.

  // Supervision events.
  uint64_t CrashesContained = 0; ///< Exceptions caught on the serve path.
  uint64_t WorkerDeaths = 0;     ///< Simulated hard worker deaths.
  uint64_t WorkerRestarts = 0;   ///< Dead workers rebuilt to serve again.
  uint64_t Retries = 0;          ///< Requeues after a crash or death.

  /// Indices of quarantined requests, sorted (the quarantine list).
  std::vector<uint64_t> PoisonedIndices;

  /// The exact conservation law: every submitted request reached exactly
  /// one terminal state.
  bool accountingIdentityHolds() const {
    return Submitted == Completed + Shed + Poisoned &&
           Shed == ShedQueueFull + ShedClosed &&
           Accepted == Completed + Poisoned;
  }

  uint64_t injectedEvents(FaultSite S) const {
    return InjectedEvents[static_cast<unsigned>(S)];
  }
  uint64_t totalInjectedProbes() const;
  uint64_t totalInjectedEvents() const;

  /// Adds every field as a "pool.books.*" gauge (DESIGN.md §11). Lives
  /// here rather than in obs/ so the observability library never depends
  /// on the runtime layer.
  void exportMetrics(MetricsRegistry &R) const;
};

/// Crash-retry and worker-replacement policy.
struct SupervisionOptions {
  /// Attempt budget per request: uniform in [AttemptsMin, AttemptsMax],
  /// drawn from deriveSeed(Root, Index, SeedLane::RetryBudget) so the
  /// budget is a pure function of the request index. Min is clamped to 1.
  uint32_t AttemptsMin = 3;
  uint32_t AttemptsMax = 3;
  /// Worker deaths the pool repairs; past this budget a dying worker
  /// retires. Keep this above the expected injected deaths:
  /// cross-worker-count determinism of the *backlog* needs the pool to
  /// stay alive.
  uint64_t MaxWorkerRestarts = 1u << 20;
};

/// Load-shedding policy at submit().
struct AdmissionOptions {
  enum class ShedPolicy {
    Block,     ///< submit() blocks while the queue is full (back-pressure).
    ShedNewest ///< submit() rejects immediately on a full queue.
  };
  ShedPolicy Policy = ShedPolicy::Block;
};

struct PoolOptions {
  /// Worker threads (0 = hardware_concurrency).
  unsigned Workers = 1;
  /// Root of every derived per-request seed.
  uint64_t RootSeed = 7;
  /// Bound of the request queue (back-pressure point).
  size_t QueueCapacity = 128;
  /// Function every request runs.
  std::string Function = "main";
  InterpreterOptions InterpOpts;
  RequestRng::Config Rng;
  SupervisionOptions Supervision;
  AdmissionOptions Admission;
  /// When set, each request attempt runs under a FaultInjector whose plan
  /// is FaultTemplate with the seed replaced by the request-derived seed
  /// (re-salted per retry attempt, so a retry is not doomed to replay the
  /// crash that killed attempt 0). SitePlan::FailFromProbe counts probes
  /// *within* the attempt.
  bool InjectFaults = false;
  FaultPlan FaultTemplate;
  /// Optional per-request adjustment of the derived plan (e.g. "the DRNG
  /// is dead for every request past 85% of the soak"). MUST be a pure
  /// function of the index — any other dependence breaks the replay
  /// guarantee.
  std::function<void(uint64_t Index, FaultPlan &Plan)> PlanForRequest;
  /// Terminal-state hook: invoked once per request, the moment it reaches
  /// its terminal state (completed, trapped, or poisoned). Runs on
  /// whichever thread recorded the outcome (a worker, or the caller of
  /// finish()), so it must be thread-safe; it observes only, and must
  /// never submit back into the pool. Shed requests never reach a worker
  /// and are NOT reported here — submit()'s false return is the shed
  /// signal.
  std::function<void(const PoolOutcome &)> OnOutcome;
  /// Per-request tracing (obs/Trace.h). Non-owning; null = tracing off,
  /// and the serve path pays exactly one pointer test per request (the
  /// FaultInjector probe pattern). Spans are observational only — they
  /// never feed seeds, scheduling, or digests — so outcomes and books are
  /// bit-identical with tracing on or off.
  TraceRecorder *Tracer = nullptr;
};

/// The pool. Lifecycle: construct → start() → submit()… → finish().
/// Misuse is hardened, not UB: finish() before start() (or after a failed
/// start()) drains anything already queued as poisoned; double
/// start()/finish() are no-ops; and submit() after finish() (or after a
/// failed start() or unrecoverable pool death) returns false and books the
/// request under ShedClosed.
class WorkerPool {
public:
  WorkerPool(Module &M, PoolOptions Opts);
  ~WorkerPool();

  unsigned workerCount() const { return static_cast<unsigned>(Workers.size()); }

  /// The worker count a pool built with PoolOptions::Workers = \p Requested
  /// runs: \p Requested, or hardware_concurrency (at least 1) for 0. The
  /// one resolution: an owner that sizes per-worker state before the pool
  /// exists (a process shard's channels) resolves through it too.
  static unsigned resolveWorkers(unsigned Requested);

  /// Launches the worker threads, the only threads the pool ever runs.
  /// Returns false with \p Err set to "entry point: <reason>" when
  /// Opts.Function cannot be called with no arguments (see
  /// findEntryPoint); a failed start launches nothing and closes the
  /// queue. Idempotent; a no-op returning false after finish().
  bool start(std::string *Err = nullptr);

  /// Launches the worker threads like start(), but each runs \p Body with
  /// its worker index in place of the queue loop: the body owns that
  /// worker and hands it requests one at a time through serve(). The
  /// queue is closed, so submit() sheds (ShedClosed). finish() joins the
  /// threads, so every body must return first. Same entry-point check,
  /// same failure and idempotence rules as start().
  bool startServing(std::function<void(unsigned Worker)> Body,
                    std::string *Err = nullptr);

  /// Serves \p Request to its terminal outcome on the calling thread,
  /// which must be worker \p WorkerIndex's own (its startServing() body).
  /// The one serve path of a queued request, with no queue and no other
  /// thread: a contained crash or a repaired death retries in place while
  /// the attempt budget lasts, and quarantines past it. Books the request
  /// Submitted and Accepted. A worker retired past the restart budget has
  /// no VM left to run on: it answers its pending retry and every later
  /// request poisoned (PoisonedPoolDeath), as a dead pool's backlog is.
  /// The reference stays valid until the worker serves again. \p Delta,
  /// when given, receives the request's accounting delta over all its
  /// attempts: what a shard child ships with each outcome, so the parent
  /// re-assembles the books from survivors of a killed child.
  const PoolOutcome &serve(unsigned WorkerIndex, PoolRequest Request,
                           RequestBooks *Delta = nullptr);

  /// Enqueues one request through the admission controller. Returns false
  /// when the request was shed (queue full under ShedNewest, or queue
  /// closed by finish(), a failed start() or pool death); the shed is
  /// booked, so the accounting identity still covers it.
  bool submit(PoolRequest Request);

  /// Requests cooperative cancellation of in-flight runs and closes the
  /// queue (abnormal shutdown). Cancelled runs are booked as poisoned.
  /// finish() still reaps threads and merges books.
  void shutdownNow();

  /// Graceful-drain step with a deadline: closes the queue and waits up to
  /// \p Millis for the backlog (including retries) to reach terminal
  /// states. Returns false on timeout — in-flight work is still running;
  /// the caller escalates (typically shutdownNow(), which cancels the
  /// stragglers so finish() books them as poisoned instead of hanging).
  bool drainWithin(unsigned Millis);

  /// Closes the queue, waits for the backlog (including retries) to reach
  /// terminal states, joins every worker, and returns all outcomes sorted
  /// by request index. Idempotent; the second
  /// call returns an empty vector.
  std::vector<PoolOutcome> finish();

  /// Aggregate accounting; valid after finish().
  const PoolBooks &books() const { return Books; }

  /// The shared decoded program (exposed for tests).
  const DecodedProgram &sharedProgram() const { return Shared; }

  /// Host memory resident for the workers' VM segments, summed
  /// (SimMemory::residentBytes). Reads every worker's VM, so call it
  /// before start() or after finish().
  uint64_t residentBytes() const;

private:
  /// A queued request plus how many serve attempts it has burned.
  struct Pending {
    PoolRequest Req;
    uint32_t Attempt = 0;
    /// Enqueue timestamp (obsNowNanos) for the span's queue-wait field;
    /// 0 when tracing is off.
    uint64_t EnqueueNs = 0;
    /// Accounting accumulated across this request's attempts so far.
    /// Requeue sites MUST carry it forward — a retry Pending that drops
    /// the delta silently loses the crashed attempts' books.
    RequestBooks Delta;
  };

  /// Where one serve attempt ended up.
  enum class ServeVerdict {
    Served,  ///< Terminal outcome recorded (success, trap, or cancelled).
    Crashed, ///< An exception escaped the serve path; contained.
    Died,    ///< Injected worker death: the worker repairs or retires.
  };

  struct Worker {
    Worker(unsigned Id, RequestRng::Config C)
        : Id(Id), Rng(std::make_unique<RequestRng>(C)) {}

    const unsigned Id;
    std::thread Thread;
    std::unique_ptr<Interpreter> VM;
    std::unique_ptr<RequestRng> Rng;
    /// This worker's span ring (null = tracing off). The pointer survives
    /// rebuilds; the worker thread is its only producer.
    TraceRing *Ring = nullptr;
    std::vector<PoolOutcome> Outcomes;
    uint64_t InjectedProbes[NumFaultSites] = {};
    uint64_t InjectedEvents[NumFaultSites] = {};

    // Carried across rebuilds: a reset Interpreter/RequestRng restarts
    // its counters at zero, so the pre-crash books are banked here and
    // merged back at finish().
    struct {
      uint64_t Requests = 0;
      uint64_t Traps = 0;
      uint64_t Recoveries = 0;
    } VmCarry;
    RequestRng::Books RngCarry;

    /// Past the restart budget: the worker serves no more.
    bool Retired = false;

    // Per-worker supervision tallies (merged at finish()).
    uint64_t CrashEvents = 0;
    uint64_t Deaths = 0;
    uint64_t Restarts = 0;
    uint64_t Retries = 0;
    uint64_t PoisonedPoolDeath = 0;
  };

  bool launch(std::function<void(unsigned)> Body, std::string *Err);
  void workerMain(Worker &W);
  /// Runs one serve attempt of \p Item on \p W and settles a failed one:
  /// books the crash or death, then repairs \p W, or retires it past the
  /// restart budget. Returns true when \p Item must run again (its
  /// Attempt already advanced), false once it reached its terminal
  /// outcome (W.Outcomes.back()).
  bool attempt(Worker &W, Pending &Item);
  ServeVerdict serveRequest(Worker &W, Pending &Item);
  /// Banks W's VM/RNG books into its carries and returns its Interpreter
  /// and RequestRng to their fresh state in place: the VM is reset to its
  /// load state (Interpreter::resetToLoad) and the RNG is reset. Both are
  /// equivalent to constructing replacements (SnapshotTest and
  /// RequestRngTest pin it), at O(bytes dirtied) instead of fresh segment
  /// mappings and a page fault for every page the worker touches again.
  /// Called on the worker's own thread after a contained crash or a
  /// repaired death; a reset reads only the worker's own VM and the
  /// immutable shared program, so concurrent resets of different workers
  /// are safe.
  void rebuildWorker(Worker &W);
  /// Deterministic per-request attempt budget (>= 1).
  uint32_t attemptBudget(uint64_t Index) const;
  /// After a crashed or dead attempt: advances \p Item to its next
  /// attempt and returns true while its attempt budget lasts; quarantines
  /// it and returns false otherwise.
  bool retryOrQuarantine(Worker &W, Pending &Item);
  /// Drains both queue lanes as poisoned-by-pool-death into W's books:
  /// the backlog of a dead pool, or of one finished without ever serving.
  void abandonBacklog(Worker &W);
  /// Records a quarantined request into \p Sink and fires OnOutcome.
  void recordPoisoned(std::vector<PoolOutcome> &Sink, uint64_t Index,
                      uint32_t Attempts);
  /// Pushes \p S onto W's ring (no-op with tracing off). A ring at least
  /// half full is drained on the spot: TraceRecorder::collect() serializes
  /// consumers under its mutex, so collection stays lossless without a
  /// timer.
  void pushSpan(Worker &W, const TraceSpan &S);

  PoolOptions Opts;
  DecodedProgram Shared;
  MpmcQueue<Pending> Queue;
  std::vector<std::unique_ptr<Worker>> Workers;
  PoolBooks Books;
  /// Why Opts.Function cannot serve (empty = it can); start() refuses.
  std::string EntryError;
  bool Started = false;
  bool Finished = false;

  /// Cooperative-cancel flag wired into every Interpreter; set by
  /// shutdownNow() and by the last worker to retire (pool death).
  std::atomic<bool> CancelAll{false};
  /// Restarts handed out so far; a death earns one while this stays
  /// below Supervision.MaxWorkerRestarts.
  std::atomic<uint64_t> RestartsUsed{0};
  /// Workers not retired; the one that takes it to zero declares the
  /// pool dead.
  std::atomic<size_t> LiveWorkers{0};

  // Admission/terminal accounting. Submit-side counters are written by
  // the submitting thread, CompletedCount by workers.
  std::atomic<uint64_t> SubmittedCount{0};
  std::atomic<uint64_t> AcceptedCount{0};
  std::atomic<uint64_t> ShedFullCount{0};
  std::atomic<uint64_t> ShedClosedCount{0};
  std::atomic<uint64_t> CompletedCount{0};
};

} // namespace smokestack

#endif // SMOKESTACK_RUNTIME_WORKERPOOL_H
