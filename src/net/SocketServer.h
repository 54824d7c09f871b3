//===- net/SocketServer.h - Epoll socket serving front-end -----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network serving front-end (DESIGN.md §13): one epoll event-loop
/// thread speaking the length-prefixed wire protocol (net/FrameCodec.h)
/// over loopback TCP, routing every request to one of N shards by the
/// deterministic (RootSeed, Index) hash (net/ShardRouter.h). A shard is a
/// WorkerPool in this process or a forked child process owning one
/// (ServerOptions::Mode, net/ShardProcess.h, DESIGN.md §15) — the routing,
/// backpressure, and deadline machinery here is mode-blind.
///
/// Threading model. The loop thread owns the listener, the connection
/// table, the shard IPC channels and the shard children's pidfds (it
/// reaps its own children), and it alone reads sockets, admits requests
/// and closes connections. Whichever thread finishes a request answers
/// it: a pool worker, the loop (a process shard's channel handler), or
/// the drain() caller. It takes the in-flight entry, which carries a
/// reference to its connection, encodes the response, appends it under
/// that connection's output lock, and, unless another thread is already
/// flushing the connection, sends everything pending itself, releasing
/// the lock around each send(). A response is Delivered when send()
/// accepts its last byte. A completing thread that needs the connection
/// closed (send error, injected reset, a doomed connection drained)
/// queues its id and wakes the loop; the fd itself closes when the last
/// reference to the connection drops, so no send() ever reaches a
/// reused fd number. The loop sleeps in epoll_wait until an fd is ready;
/// its eventfd carries stop, drain and close requests, and it keeps no
/// timer except the drain's final flush deadline.
///
/// Robustness posture:
///  - a malformed frame (hardened decoder) or payload is an accounted
///    protocol error that tears down that one connection — never a crash,
///    never a desync;
///  - per-request deadlines are enforced at admission (an expired request
///    is answered DeadlineExpired without touching a shard) and flagged at
///    completion (RespFlagDeadlineMissed);
///  - backpressure is end-to-end: a slow reader pauses its own socket
///    reads once its response backlog passes MaxConnBacklogBytes, and the
///    shards run ShedNewest admission so overload is shed with exact
///    books, not buffered without bound;
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
/// into exactly one class. The loop thread writes most fields; the ones a
/// completing thread also writes (BytesOut, the delivery pair,
/// DeadlineMissed and the three flush-site fault counts) are only ever
/// incremented as relaxed atomics.
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
  Thread, ///< WorkerPool in this process (InProcessShard).
  Process ///< Forked child process per shard (ChildProcessShard).
};

struct ServerOptions {
  /// TCP port on 127.0.0.1 (loopback only; this is a harness front-end,
  /// not an internet-facing daemon). 0 = kernel-assigned, read via port().
  uint16_t Port = 0;
  /// WorkerPool shards. Each shard is an independent pool over the same
  /// module and RootSeed; requests land by shardForRequest().
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
  /// against NetFaultPlan: the accept and read sites probe on the loop
  /// thread, the flush sites on whichever thread flushes. Independent of
  /// the shards' per-request injection (Pool.InjectFaults), which these
  /// probes never consult.
  bool InjectNetFaults = false;
  FaultPlan NetFaultPlan;
  /// Template for every shard's pool. Workers is per shard. Admission
  /// policy is forced to ShedNewest — the loop thread must never block on
  /// a full shard queue. OnOutcome is owned by the server. Function must
  /// name a zero-argument definition, or start() fails.
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

  /// Checks the entry point, then binds, listens, starts the shards and
  /// the loop thread. Returns false with \p Err set on a bad entry point
  /// (before any shard starts) or a socket-layer or fork failure. Not
  /// restartable.
  bool start(std::string *Err = nullptr);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Records a stop request and wakes the loop. Safe from a signal
  /// handler (atomic store + pipe write only).
  void requestStop();

  bool stopRequested() const {
    return StopFlag.load(std::memory_order_acquire);
  }

  /// Graceful shutdown: stops accepting, quiesces reads, drains every
  /// shard within the drain budget (escalating to cancellation on
  /// timeout), flushes every pending response it still can, closes all
  /// connections, joins all threads, and returns the merged books.
  /// Idempotent; the second call returns the first call's report.
  DrainReport drain();

private:
  struct Conn;

  void loopMain();
  void handleAccept();
  void handleReadable(Conn &C);
  void handleWritable(Conn &C);
  /// Both return whether the loop queued a response of its own.
  bool handleFrame(Conn &C, const std::vector<uint8_t> &Payload);
  bool pumpDecoder(Conn &C);
  void doom(Conn &C);
  void enqueueResponse(Conn &C, const WireResponse &R, bool Booked);
  bool appendLocked(Conn &C, const std::vector<uint8_t> &Frame, bool Booked);
  enum class CloseWant { None, Close, Reset };
  CloseWant flushLocked(Conn &C, std::unique_lock<std::mutex> &Lock);
  void flushConn(Conn &C);
  void closeConn(uint64_t Id, bool CountReset);
  void queueClose(uint64_t Id, bool CountReset);
  void drainCloseQueue();
  /// Answers one shard outcome on its connection, on the calling thread.
  void completeOutcome(const PoolOutcome &O);
  void updateEpollLocked(Conn &C);
  bool netProbe(FaultSite Site);
  void wakeLoop();
  void closeAll();

  Module &M;
  ServerOptions Opts;

  std::vector<std::unique_ptr<Shard>> Shards;
  /// Non-owning process-mode view of Shards (empty in thread mode).
  std::vector<ChildProcessShard *> ProcShards;

  int EpollFd = -1;
  int ListenFd = -1;
  /// Loop wakeup: an eventfd (write is async-signal-safe, so requestStop
  /// can poke it from a signal handler). It carries stop, drain and close
  /// requests.
  int WakeEventFd = -1;
  uint16_t BoundPort = 0;
  bool ListenerArmed = false;

  std::thread LoopThread;
  std::atomic<bool> StopFlag{false};

  /// Drain phases, advanced by drain() and observed by the loop.
  enum class Phase : int { Running = 0, Quiesce = 1, Flush = 2, Exit = 3 };
  std::atomic<int> PhaseFlag{0};
  /// Set once the loop has applied Quiesce (or returned): no submit() is
  /// in progress or will start, so the shard books can be frozen.
  std::atomic<bool> Quiesced{false};

  /// Loop-thread state.
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> Conns;
  uint64_t NextConnId = 2; ///< 0 = listener, 1 = wake eventfd.
  /// Indices admitted during the current handleReadable call.
  std::vector<uint64_t> ReadAdmitted;

  /// Admitted requests awaiting their outcome. The loop inserts; the
  /// completing thread erases. The mutex covers only find, emplace and
  /// erase; each entry keeps its connection alive until it is answered.
  struct InFlightReq {
    std::shared_ptr<Conn> C;
    uint64_t DeadlineNs = 0; ///< 0 = none.
  };
  std::mutex InFlightMu;
  std::unordered_map<uint64_t, InFlightReq> InFlight;

  /// Closes wanted by a thread other than the loop: (connection id,
  /// count as reset).
  std::mutex CloseMu;
  std::vector<std::pair<uint64_t, bool>> CloseQueue;

  NetBooks Net;
  std::unique_ptr<FaultInjector> NetInjector;

  bool Started = false;
  bool Drained = false;
  DrainReport Report;
};

} // namespace smokestack

#endif // SMOKESTACK_NET_SOCKETSERVER_H
