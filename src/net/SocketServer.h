//===- net/SocketServer.h - Epoll socket serving front-end -----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network serving front-end (DESIGN.md §13): epoll event loops
/// speaking the length-prefixed wire protocol (net/FrameCodec.h) over
/// loopback TCP. A shard is a WorkerPool in this process or a forked
/// child process owning one (ServerOptions::Mode, net/ShardProcess.h,
/// DESIGN.md §15).
///
/// Threading model. Every connection belongs to one loop for its whole
/// life, and only that loop's thread reads it, answers it and closes it,
/// so no connection state is shared between threads.
///  - Thread mode: each pool worker is a serving loop (Shards x Workers
///    threads, and no other). Connection k in accept order belongs to
///    loop k mod (Shards x Workers); loop 0 also owns the listener and
///    hands each accepted fd to its owner. A loop reads a frame, serves
///    it on its own worker (WorkerPool::serve: containment, retry in
///    place, repair), encodes the response and flushes it, all on one
///    thread: no queue, no wake of another thread. Backpressure pauses
///    the connection's reads; nothing is shed.
///  - Process mode: one loop thread owns the listener, every connection,
///    the shard IPC channels and the shard children's pidfds (it reaps
///    its own children). It routes each request by the deterministic
///    (RootSeed, Index) hash (net/ShardRouter.h) to a shard, which hands
///    it to the least loaded of its child's workers over that worker's
///    channel, and answers the outcome when it comes back.
/// A loop sleeps in epoll_wait until an fd is ready; its eventfd carries
/// stop and drain requests and, in thread mode, handed-over connections.
/// It keeps no timer except the drain's final flush deadline.
///
/// Robustness posture:
///  - a malformed frame (hardened decoder) or payload is an accounted
///    protocol error that tears down that one connection — never a crash,
///    never a desync;
///  - per-request deadlines are enforced at admission (an expired request
///    is answered DeadlineExpired without touching a shard) and flagged at
///    completion (RespFlagDeadlineMissed);
///  - backpressure is end-to-end: a slow reader pauses its own socket
///    reads once its response backlog passes MaxConnBacklogBytes; in
///    process mode the parent also caps each shard's in-flight requests
///    at QueueCapacity and sheds past it with exact books;
///  - network fault sites (accept failure, short I/O, connection reset,
///    stalled peer) inject at the socket layer and degrade *delivery*
///    only: the serving layer below stays deterministic in (RootSeed,
///    Index), which is what lets the chaos soak demand a bit-identical
///    outcome digest over the wire.
///
/// Wire accounting identity, exact at drain() (NetBooks::wireIdentityHolds):
///
///   FramesDecoded == Admitted + WireShed + DeadlineRejected + BadPayload
///   Submitted(pool) == Admitted + WireShed,  Admitted == Accepted(pool)
///   Delivered + Orphaned == Admitted + WireShed + DeadlineRejected
///
/// i.e. every decoded frame reaches exactly one wire-visible terminal
/// state, extending Submitted == Completed + Shed + Poisoned to the wire.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_NET_SOCKETSERVER_H
#define SMOKESTACK_NET_SOCKETSERVER_H

#include "net/FrameCodec.h"
#include "net/ShardProcess.h"
#include "runtime/WorkerPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace smokestack {

class MetricsRegistry;

/// Socket-layer accounting, valid to read after drain(). Mirrors PoolBooks
/// in spirit: every decoded frame and every generated response is booked
/// into exactly one class. Each loop keeps its own books; drain() sums
/// them.
struct NetBooks {
  // Connection lifecycle.
  uint64_t ConnectionsAccepted = 0;
  uint64_t ConnectionsClosed = 0; ///< Every close, whatever the reason.
  uint64_t ConnectionsRefused = 0; ///< Over MaxConnections; closed at accept.
  uint64_t ConnectionsReset = 0;  ///< Subset of Closed: ECONNRESET/EPIPE.

  // Injected network faults (booked at the probe that fired).
  uint64_t AcceptFaults = 0;
  uint64_t PartialIoFaults = 0;
  uint64_t StallFaults = 0;
  uint64_t ResetFaults = 0;

  // Process-mode shard lifecycle (DESIGN.md §15). A death is any reap the
  // parent did not order via drain; a restart is the re-fork that follows
  // while the budget lasts; a replay is one cached in-flight request
  // re-submitted into the replacement child. Replays never touch the
  // admission books — the request was Submitted exactly once.
  uint64_t ShardDeaths = 0;
  uint64_t ShardDeathsBySignal = 0; ///< Subset of Deaths: WIFSIGNALED.
  uint64_t ShardRestarts = 0;
  uint64_t ShardReplays = 0;
  uint64_t ShardKillFaults = 0; ///< Injected ShardKill probes that fired.
  uint64_t ShardIpcFaults = 0;  ///< Injected one-byte parent-side IPC I/Os.

  // Raw I/O.
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;

  // Frame layer. FramesDecoded counts complete payloads extracted;
  // ProtocolErrors is the sum of its four classes.
  uint64_t FramesDecoded = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t FrameOversize = 0;
  uint64_t FrameZeroLength = 0;
  uint64_t FrameTruncated = 0;
  uint64_t BadPayload = 0; ///< Decoded frame whose payload failed the schema
                           ///< (bad magic, lying lengths, duplicate index).

  // Admission (the wire extension of the pool identity).
  uint64_t RequestsAdmitted = 0;  ///< Accepted by a shard's admission.
  uint64_t WireShed = 0;          ///< Shard shed it (breaker/full/closed).
  uint64_t DeadlineRejected = 0;  ///< Expired before admission.
  uint64_t DeadlineMissed = 0;    ///< Served, but past its deadline (flag).

  // Response delivery. Every request-indexed response ends Delivered
  // (last byte written to the socket) or Orphaned (its connection died
  // first). Protocol-error notices are best-effort and booked in neither.
  uint64_t ResponsesDelivered = 0;
  uint64_t ResponsesOrphaned = 0;

  /// The wire conservation law against the aggregate shard books
  /// \p Pool. Exact after drain(): every pool outcome has been matched to
  /// a response and every response has reached a terminal delivery state.
  bool wireIdentityHolds(const PoolBooks &Pool) const {
    return FramesDecoded ==
               RequestsAdmitted + WireShed + DeadlineRejected + BadPayload &&
           ProtocolErrors ==
               FrameOversize + FrameZeroLength + FrameTruncated + BadPayload &&
           Pool.Submitted == RequestsAdmitted + WireShed &&
           Pool.Shed == WireShed && RequestsAdmitted == Pool.Accepted &&
           ResponsesDelivered + ResponsesOrphaned ==
               RequestsAdmitted + WireShed + DeadlineRejected;
  }

  /// Adds every field of \p O to this one.
  NetBooks &operator+=(const NetBooks &O);

  /// Adds every field as a "net.books.*" gauge (DESIGN.md §11).
  void exportMetrics(MetricsRegistry &R) const;
};

/// Ignores SIGPIPE process-wide, idempotently: a peer closing mid-write
/// must surface as EPIPE on the write, never kill the process —
/// MSG_NOSIGNAL only covers send() call sites, not pipe/socketpair
/// writes. Server entry points (smokestack-opt -serve, soak_server) and
/// SocketServer::start() all call this.
void installServerSignalDefaults();

/// Sums shard books into an aggregate. Every PoolBooks field is a sum of
/// per-request deltas, so the aggregate over a deterministic shard split
/// equals the single-pool books — the property the scaling soak pins.
void mergePoolBooks(PoolBooks &Into, const PoolBooks &From);

/// How each shard is isolated from the server (DESIGN.md §15).
enum class ShardMode {
  Thread, ///< WorkerPool in this process; its workers serve connections.
  Process ///< Forked child process per shard (ChildProcessShard).
};

struct ServerOptions {
  /// TCP port on 127.0.0.1 (loopback only; this is a harness front-end,
  /// not an internet-facing daemon). 0 = kernel-assigned, read via port().
  uint16_t Port = 0;
  /// WorkerPool shards. Each shard is an independent pool over the same
  /// module and RootSeed. In thread mode each worker of each shard serves
  /// the connections it owns; in process mode requests land by
  /// shardForRequest().
  unsigned Shards = 1;
  /// Shard isolation level. Process mode is digest-neutral: the wire
  /// outcome stream and the aggregate books are bit-identical to thread
  /// mode, including across injected SIGKILLs (kill-and-replay). It
  /// needs pidfds (Linux >= 5.4); without them start() fails.
  ShardMode Mode = ShardMode::Thread;
  /// Per-shard re-fork budget (process mode). Past it the shard retires:
  /// its in-flight requests are poisoned and later submits shed.
  unsigned ShardRestartBudget = 1u << 20;
  /// Connection cap; accepts beyond it are closed immediately (Refused).
  unsigned MaxConnections = 256;
  /// Per-connection pending-response cap: past it, the connection's reads
  /// pause until the backlog flushes below half (read-side backpressure).
  size_t MaxConnBacklogBytes = 1u << 22;
  /// Graceful-drain budget per phase (shard drain; final response flush).
  /// On shard-drain timeout drain() escalates to shutdownNow() — the
  /// in-flight requests are cancelled and booked poisoned — and reports
  /// Clean = false.
  unsigned DrainTimeoutMillis = 5000;
  /// Network-layer fault injection (sites AcceptFailure..ClientStall)
  /// against NetFaultPlan, probed on the loop that owns the listener or
  /// the connection. Independent of the shards' per-request injection
  /// (Pool.InjectFaults), which these probes never consult.
  bool InjectNetFaults = false;
  FaultPlan NetFaultPlan;
  /// Template for every shard's pool. Workers is per shard. OnOutcome is
  /// owned by the server. QueueCapacity bounds only process mode: it is
  /// the parent's in-flight cap per shard (no mode serves from a queue).
  /// Function must name a zero-argument definition, or start() fails.
  PoolOptions Pool;
};

/// What drain() hands back.
struct DrainReport {
  /// True when every shard drained within DrainTimeoutMillis — no
  /// cancellation, nothing poisoned by the drain itself.
  bool Clean = false;
  /// NetBooks::wireIdentityHolds over the aggregate books.
  bool IdentityOk = false;
  NetBooks Net;
  PoolBooks Pool; ///< Aggregate over shards (mergePoolBooks).
  std::vector<PoolBooks> PerShard;
  /// All outcomes, every shard, sorted by request index.
  std::vector<PoolOutcome> Outcomes;
};

/// Lifecycle: construct → start() → clients connect → drain().
/// requestStop() is async-signal-safe and only *requests*: the owner (who
/// sees stopRequested()) still calls drain() from a normal thread — the
/// SIGTERM pattern in smokestack-opt -serve.
class SocketServer {
public:
  SocketServer(Module &M, ServerOptions Opts);
  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Checks the entry point, then binds, listens, and starts the shards
  /// and the loops. Returns false with \p Err set on a bad entry point
  /// (before any shard starts) or a socket-layer or fork failure. Not
  /// restartable.
  bool start(std::string *Err = nullptr);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Records a stop request. Safe from a signal handler (one atomic
  /// store).
  void requestStop();

  bool stopRequested() const {
    return StopFlag.load(std::memory_order_acquire);
  }

  /// Graceful shutdown: stops accepting, quiesces reads, lets every
  /// request already read finish within the drain budget (escalating to
  /// cancellation on timeout), flushes every pending response it still
  /// can, closes all connections, joins all threads, and returns the
  /// merged books. Idempotent; the second call returns the first call's
  /// report.
  DrainReport drain();

private:
  struct Conn;
  struct Loop;

  void loopMain(Loop &L);
  void applyPhase(Loop &L, int P);
  void ackQuiesce(Loop &L);
  void handleAccept(Loop &L);
  void adopt(Loop &L, int Fd, uint64_t Id);
  void adoptHandoffs(Loop &L);
  void handleReadable(Loop &L, Conn &C);
  void handleFrame(Loop &L, Conn &C, const std::vector<uint8_t> &Payload);
  void pumpDecoder(Loop &L, Conn &C);
  void doom(Loop &L, Conn &C);
  /// Queues \p R on \p C; a Booked response counts toward the delivery
  /// identity.
  void enqueueResponse(Conn &C, const WireResponse &R, bool Booked);
  /// Queues the response to \p O; \p DeadlineNs (0 = none) sets the
  /// deadline-missed flag.
  void answer(Loop &L, Conn &C, const PoolOutcome &O, uint64_t DeadlineNs);
  /// Sends what \p C owes and re-arms its epoll mask. May close \p C:
  /// nothing touches it afterwards.
  void flushConn(Loop &L, Conn &C);
  void closeConn(Loop &L, uint64_t Id, bool CountReset);
  /// Process mode: answers one shard outcome on its connection.
  void completeOutcome(const PoolOutcome &O);
  void updateEpoll(Loop &L, Conn &C);
  bool netProbe(FaultSite Site);
  void wake(Loop &L);
  void wakeAll();
  void closeAll();

  Module &M;
  ServerOptions Opts;

  /// Thread mode: one pool per shard; loop I serves on worker
  /// I / Shards of pool I % Shards.
  std::vector<std::unique_ptr<WorkerPool>> Pools;
  /// Process mode: one child per shard, all serviced by the one loop.
  std::vector<std::unique_ptr<ChildProcessShard>> ProcShards;

  /// Loops[0] owns the listener (and, in process mode, everything else).
  std::vector<std::unique_ptr<Loop>> Loops;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  /// Accepted connections not yet closed, against MaxConnections.
  std::atomic<unsigned> OpenConns{0};
  uint64_t NextConnId = 2; ///< Loops[0] only. 0 = listener, 1 = eventfd.

  /// Process mode only: thread-mode loops run on the pool workers.
  std::thread LoopThread;
  std::atomic<bool> StopFlag{false};

  /// Drain phases, advanced by drain() and observed by every loop.
  enum class Phase : int { Running = 0, Quiesce = 1, Flush = 2 };
  std::atomic<int> PhaseFlag{0};
  /// Loops that have applied Quiesce (or returned): they read nothing
  /// more, and a thread-mode loop has answered every request it read.
  std::mutex QuiesceMu;
  std::condition_variable QuiesceCv;
  size_t QuiescedLoops = 0;

  /// Process mode (loop thread only): admitted requests awaiting their
  /// outcome, by index.
  struct InFlightReq {
    uint64_t ConnId = 0;
    uint64_t DeadlineNs = 0; ///< 0 = none.
  };
  std::unordered_map<uint64_t, InFlightReq> InFlight;

  std::unique_ptr<FaultInjector> NetInjector;

  bool Started = false;
  bool Drained = false;
  DrainReport Report;
};

} // namespace smokestack

#endif // SMOKESTACK_NET_SOCKETSERVER_H
