//===- net/SocketServer.cpp - Epoll socket serving front-end --------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/SocketServer.h"

#include "net/ShardRouter.h"
#include "obs/MetricsRegistry.h"
#include "obs/Trace.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstring>
#include <deque>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace smokestack;

namespace {

/// epoll user-data slots for the two non-connection fds.
constexpr uint64_t ListenerId = 0;
constexpr uint64_t WakeId = 1;
/// Shard IPC channels and shard children's pidfds live in their own id
/// namespaces, far above any connection id (NextConnId would need 2^48
/// accepts to collide): the low bits are the shard index. Each shard adds
/// and deletes its own two entries (ChildProcessShard).
constexpr uint64_t ShardPidIdBase = 0xFFFE'0000'0000'0000ull;
constexpr uint64_t ShardIdBase = 0xFFFF'0000'0000'0000ull;

constexpr uint64_t MillisToNanos = 1000u * 1000u;

/// Books \p N on a NetBooks field that a completing thread may also
/// write. drain() reads the books after every writer has been joined.
void bump(uint64_t &Field, uint64_t N = 1) {
  std::atomic_ref<uint64_t>(Field).fetch_add(N, std::memory_order_relaxed);
}

} // namespace

void NetBooks::exportMetrics(MetricsRegistry &R) const {
  auto G = [&R](const char *Name, const char *Help, uint64_t V) {
    R.addGauge(Name, Help, V);
  };
  G("net.books.connections-accepted", "Connections accepted",
    ConnectionsAccepted);
  G("net.books.connections-closed", "Connections closed (any reason)",
    ConnectionsClosed);
  G("net.books.connections-refused", "Accepts refused over MaxConnections",
    ConnectionsRefused);
  G("net.books.connections-reset", "Connections lost to reset/EPIPE",
    ConnectionsReset);
  G("net.books.accept-faults", "Injected accept failures", AcceptFaults);
  G("net.books.partial-io-faults", "Injected one-byte short I/Os",
    PartialIoFaults);
  G("net.books.stall-faults", "Injected peer-stall write rejections",
    StallFaults);
  G("net.books.reset-faults", "Injected mid-stream connection resets",
    ResetFaults);
  G("net.books.shard-deaths", "Shard child processes reaped unexpectedly",
    ShardDeaths);
  G("net.books.shard-deaths-by-signal", "Shard deaths killed by a signal",
    ShardDeathsBySignal);
  G("net.books.shard-restarts", "Shard re-forks after a death",
    ShardRestarts);
  G("net.books.shard-replays", "In-flight requests replayed into a new child",
    ShardReplays);
  G("net.books.shard-kill-faults", "Injected shard SIGKILL faults",
    ShardKillFaults);
  G("net.books.shard-ipc-faults", "Injected one-byte shard IPC I/Os",
    ShardIpcFaults);
  G("net.books.bytes-in", "Payload bytes read from sockets", BytesIn);
  G("net.books.bytes-out", "Payload bytes written to sockets", BytesOut);
  G("net.books.frames-decoded", "Complete frames decoded", FramesDecoded);
  G("net.books.protocol-errors", "Malformed frames/payloads (all classes)",
    ProtocolErrors);
  G("net.books.frame-oversize", "Frames with an oversize length prefix",
    FrameOversize);
  G("net.books.frame-zero-length", "Frames with a zero length prefix",
    FrameZeroLength);
  G("net.books.frame-truncated", "Streams closed mid-frame", FrameTruncated);
  G("net.books.bad-payload", "Decoded frames failing the request schema",
    BadPayload);
  G("net.books.requests-admitted", "Wire requests admitted to a shard",
    RequestsAdmitted);
  G("net.books.wire-shed", "Wire requests shed by shard admission", WireShed);
  G("net.books.deadline-rejected", "Wire requests expired before admission",
    DeadlineRejected);
  G("net.books.deadline-missed", "Responses served past their deadline",
    DeadlineMissed);
  G("net.books.responses-delivered", "Responses fully written to a socket",
    ResponsesDelivered);
  G("net.books.responses-orphaned", "Responses whose connection died first",
    ResponsesOrphaned);
}

void smokestack::installServerSignalDefaults() {
  // Every write path to a dying peer — client sockets, shard socketpairs —
  // must fail with EPIPE instead of killing the server.
  ::signal(SIGPIPE, SIG_IGN);
}

void smokestack::mergePoolBooks(PoolBooks &Into, const PoolBooks &From) {
  Into.Requests += From.Requests;
  Into.RequestTraps += From.RequestTraps;
  Into.RequestRecoveries += From.RequestRecoveries;
  Into.Rng += From.Rng;
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    Into.InjectedProbes[I] += From.InjectedProbes[I];
    Into.InjectedEvents[I] += From.InjectedEvents[I];
  }
  Into.Submitted += From.Submitted;
  Into.Accepted += From.Accepted;
  Into.Completed += From.Completed;
  Into.Shed += From.Shed;
  Into.ShedQueueFull += From.ShedQueueFull;
  Into.ShedClosed += From.ShedClosed;
  Into.Poisoned += From.Poisoned;
  Into.PoisonedPoolDeath += From.PoisonedPoolDeath;
  Into.CrashesContained += From.CrashesContained;
  Into.WorkerDeaths += From.WorkerDeaths;
  Into.WorkerRestarts += From.WorkerRestarts;
  Into.Retries += From.Retries;
  Into.PoisonedIndices.insert(Into.PoisonedIndices.end(),
                              From.PoisonedIndices.begin(),
                              From.PoisonedIndices.end());
  std::sort(Into.PoisonedIndices.begin(), Into.PoisonedIndices.end());
}

/// One client connection. The loop thread alone reads it, admits its
/// requests and closes it; the thread that finishes one of its requests
/// writes the response to it. Mu guards the output side.
struct SocketServer::Conn : std::enable_shared_from_this<Conn> {
  int Fd = -1;
  uint64_t Id = 0;

  // ---- Input side: the loop thread only.
  FrameDecoder Decoder;
  /// First byte of the frame currently being assembled (deadline base);
  /// 0 = not mid-frame.
  uint64_t FrameStartNs = 0;
  bool Doomed = false; ///< Protocol error: no further frames (set under Mu).
  /// Admitted requests awaiting completion: the loop increments, the
  /// completing thread decrements under Mu as it queues the response.
  std::atomic<unsigned> InFlightCount{0};
  /// Backpressure or drain quiesce. Written under Mu; the loop reads it
  /// without the lock to stop reading.
  std::atomic<bool> ReadPaused{false};

  // ---- Output side, guarded by Mu.
  std::mutex Mu;
  /// Responses not yet taken by a flusher.
  std::vector<uint8_t> Out;
  /// The flusher's batch, swapped out of Out: [SendPos, Sending.size()) is
  /// unsent. Only the thread that set Flushing touches it, so an append
  /// never moves the bytes a send() is reading.
  std::vector<uint8_t> Sending;
  size_t SendPos = 0;
  /// Delivery accounting runs in lifetime-offset space: RespEnds holds
  /// each booked response's end offset in OutTotalEnqueued coordinates,
  /// and a response is Delivered the moment OutTotalFlushed passes its
  /// end, i.e. when send() has accepted its last byte.
  uint64_t OutTotalEnqueued = 0;
  uint64_t OutTotalFlushed = 0;
  std::deque<uint64_t> RespEnds;
  bool Flushing = false;  ///< A thread is sending; others append and leave.
  bool Closed = false;    ///< Output is dead: later responses are orphaned.
  bool CloseAfterFlush = false;
  bool WantWrite = false; ///< EPOLLOUT armed (kernel buffer was full).
  int ArmedEvents = -1;   ///< Last epoll mask installed (-1 = none yet).

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  size_t pendingOut() const { return Sending.size() - SendPos + Out.size(); }

  /// Books every response still owed on this connection Orphaned and
  /// drops its bytes.
  void orphanAll(NetBooks &Net) {
    bump(Net.ResponsesOrphaned, RespEnds.size());
    RespEnds.clear();
    Out.clear();
    Sending.clear();
    SendPos = 0;
  }
};

SocketServer::SocketServer(Module &M, ServerOptions Opts)
    : M(M), Opts(std::move(Opts)) {
  if (this->Opts.Shards == 0)
    this->Opts.Shards = 1;
}

SocketServer::~SocketServer() {
  if (Started && !Drained)
    drain();
  closeAll();
}

void SocketServer::closeAll() {
  // Shards first: a process shard deletes its epoll entries before it
  // closes its fds. Shard destructors stop their pools and kill and reap
  // their children.
  ProcShards.clear();
  Shards.clear();
  for (int *Fd : {&EpollFd, &ListenFd, &WakeEventFd})
    if (*Fd >= 0) {
      ::close(*Fd);
      *Fd = -1;
    }
}

void SocketServer::wakeLoop() {
  if (WakeEventFd >= 0) {
    uint64_t One = 1;
    (void)!::write(WakeEventFd, &One, sizeof One);
  }
}

bool SocketServer::netProbe(FaultSite Site) {
  if (NetInjector)
    return NetInjector->shouldFail(Site);
  // The process-wide slot keeps the sites probe-able from tests that
  // install a ProcessFaultScope instead of configuring the server. Never
  // the thread slot: a worker answering its request still runs inside
  // that request's FaultScope, whose plan is not the socket layer's.
  FaultInjector *Process =
      detail::ProcessInjector.load(std::memory_order_acquire);
  return Process != nullptr && Process->shouldFail(Site);
}

bool SocketServer::start(std::string *Err) {
  auto Fail = [&](std::string Why) {
    if (Err)
      *Err = std::move(Why);
    closeAll();
    return false;
  };
  auto SysFail = [&](const char *What) {
    return Fail(std::string(What) + ": " + std::strerror(errno));
  };

  if (Started)
    return false;

  // Every request calls the entry point with no arguments: refuse one
  // that cannot take that call before anything is bound or forked,
  // instead of answering every request with a BadCall trap.
  std::string Why;
  if (!findEntryPoint(M, Opts.Pool.Function, 0, Why))
    return Fail("entry point: " + Why);

  // SIGPIPE must be ignored process-wide (peer teardown during a write is
  // an EPIPE, never death). Idempotent, and also called by the entry-point
  // binaries — this is the backstop for embedders.
  installServerSignalDefaults();

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return SysFail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Opts.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0)
    return SysFail("bind");
  if (::listen(ListenFd, 128) < 0)
    return SysFail("listen");
  socklen_t AddrLen = sizeof Addr;
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen) <
      0)
    return SysFail("getsockname");
  BoundPort = ntohs(Addr.sin_port);

  WakeEventFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (WakeEventFd < 0)
    return SysFail("eventfd");

  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (EpollFd < 0)
    return SysFail("epoll_create1");
  epoll_event Ev = {};
  Ev.events = EPOLLIN;
  Ev.data.u64 = ListenerId;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev) < 0)
    return SysFail("epoll_ctl(listener)");
  ListenerArmed = true;
  Ev.data.u64 = WakeId;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeEventFd, &Ev) < 0)
    return SysFail("epoll_ctl(wake)");

  if (Opts.InjectNetFaults)
    NetInjector = std::make_unique<FaultInjector>(Opts.NetFaultPlan);

  // Shards: same module, same RootSeed — a request's outcome depends only
  // on its index, so the shard split (and the isolation mode) is invisible
  // to results. The loop thread must never block in submit(), so thread-
  // mode admission is forced to ShedNewest; a full shard queue becomes an
  // exact WireShed book entry plus a Shed response, which is the
  // backpressure contract. (Process mode enforces the same cap parent-side
  // and flips the child to Block admission — see ShardProcess.h.)
  PoolOptions ShardOpts = Opts.Pool;
  ShardOpts.Admission.Policy = AdmissionOptions::ShedPolicy::ShedNewest;
  // Every outcome is answered on the thread that delivers it.
  auto Deliver = [this](const PoolOutcome &O) { completeOutcome(O); };
  ShardOpts.OnOutcome = Deliver;
  if (Opts.Mode == ShardMode::Process) {
    ShardHooks Hooks;
    Hooks.DeliverOutcome = Deliver;
    Hooks.Probe = [this](FaultSite S) { return netProbe(S); };
    Hooks.WakeLoop = [this] { wakeLoop(); };
    for (unsigned I = 0; I != Opts.Shards; ++I) {
      auto C = std::make_unique<ChildProcessShard>(
          M, ShardOpts, I, Opts.ShardRestartBudget, Net, Hooks, EpollFd,
          ShardIdBase | I, ShardPidIdBase | I);
      std::string ChildErr;
      if (!C->start(&ChildErr))
        return Fail(ChildErr);
      ProcShards.push_back(C.get());
      Shards.push_back(std::move(C));
    }
  } else {
    for (unsigned I = 0; I != Opts.Shards; ++I) {
      Shards.push_back(std::make_unique<InProcessShard>(M, ShardOpts));
      Shards.back()->start(nullptr);
    }
  }

  Started = true;
  LoopThread = std::thread([this] {
    pthread_setname_np(pthread_self(), "ss-loop");
    loopMain();
    Quiesced.store(true, std::memory_order_release);
    Quiesced.notify_all();
    // From here on nothing services the shards: a drain that still
    // waits on one may take its child down itself.
    for (ChildProcessShard *S : ProcShards)
      S->loopExited();
  });
  return true;
}

void SocketServer::requestStop() {
  StopFlag.store(true, std::memory_order_release);
  // eventfd writes are async-signal-safe, like the pipe write this
  // replaced — requestStop stays callable from a SIGTERM handler.
  wakeLoop();
}

void SocketServer::updateEpollLocked(Conn &C) {
  int Want = (C.ReadPaused ? 0 : int(EPOLLIN)) |
             (C.WantWrite ? int(EPOLLOUT) : 0);
  if (C.Closed || Want == C.ArmedEvents)
    return;
  epoll_event Ev = {};
  Ev.events = static_cast<uint32_t>(Want);
  Ev.data.u64 = C.Id;
  ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
  C.ArmedEvents = Want;
}

void SocketServer::handleAccept() {
  if (netProbe(FaultSite::AcceptFailure)) {
    // Transient accept failure (EMFILE pressure). Level-triggered epoll
    // re-reports the listener, so the pending connection is retried on
    // the next loop iteration with a fresh probe.
    ++Net.AcceptFaults;
    return;
  }
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or a transient kernel error: retry via level-trigger
    }
    if (Conns.size() >= Opts.MaxConnections) {
      ++Net.ConnectionsRefused;
      ::close(Fd);
      continue;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    C->Id = NextConnId++;
    epoll_event Ev = {};
    Ev.events = EPOLLIN;
    Ev.data.u64 = C->Id;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0)
      continue; // ~Conn closes the fd
    C->ArmedEvents = EPOLLIN;
    ++Net.ConnectionsAccepted;
    Conns.emplace(C->Id, std::move(C));
  }
}

void SocketServer::closeConn(uint64_t Id, bool CountReset) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  std::shared_ptr<Conn> C = std::move(It->second);
  Conns.erase(It);
  {
    std::lock_guard<std::mutex> Lock(C->Mu);
    C->Closed = true;
    // Responses enqueued but not fully written die with the connection.
    // A flusher inside send() books what it sent and orphans the rest.
    if (!C->Flushing)
      C->orphanAll(Net);
  }
  ++Net.ConnectionsClosed;
  if (CountReset)
    ++Net.ConnectionsReset;
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, C->Fd, nullptr);
  // Fails a send() in progress with EPIPE. The fd number stays taken
  // until the last reference drops (~Conn): in-flight requests keep the
  // connection alive, and their responses are booked Orphaned.
  ::shutdown(C->Fd, SHUT_RDWR);
}

void SocketServer::queueClose(uint64_t Id, bool CountReset) {
  {
    std::lock_guard<std::mutex> Lock(CloseMu);
    CloseQueue.emplace_back(Id, CountReset);
  }
  wakeLoop();
}

void SocketServer::drainCloseQueue() {
  std::vector<std::pair<uint64_t, bool>> Batch;
  {
    std::lock_guard<std::mutex> Lock(CloseMu);
    Batch.swap(CloseQueue);
  }
  for (auto [Id, CountReset] : Batch)
    closeConn(Id, CountReset);
}

bool SocketServer::appendLocked(Conn &C, const std::vector<uint8_t> &Frame,
                                bool Booked) {
  if (C.Closed) {
    if (Booked)
      bump(Net.ResponsesOrphaned);
    return false;
  }
  C.Out.insert(C.Out.end(), Frame.begin(), Frame.end());
  C.OutTotalEnqueued += Frame.size();
  if (Booked)
    C.RespEnds.push_back(C.OutTotalEnqueued);
  if (C.pendingOut() > Opts.MaxConnBacklogBytes)
    C.ReadPaused = true; // resumed by a flush below the low-water mark
  return true;
}

void SocketServer::enqueueResponse(Conn &C, const WireResponse &R,
                                   bool Booked) {
  std::vector<uint8_t> Frame = encodeResponseFrame(R);
  std::lock_guard<std::mutex> Lock(C.Mu);
  appendLocked(C, Frame, Booked);
}

void SocketServer::doom(Conn &C) {
  // The peer is confused or hostile, and there is no safe way to keep
  // interpreting its stream: answer with a notice, read nothing more, and
  // close once the responses already owed are out.
  std::vector<uint8_t> Notice = encodeResponseFrame(
      {0, WireStatus::ProtocolError, TrapKind::None, 0, 0, 0, 0});
  std::lock_guard<std::mutex> Lock(C.Mu);
  appendLocked(C, Notice, /*Booked=*/false);
  C.Doomed = true;
  C.CloseAfterFlush = true;
  C.ReadPaused = true;
}

SocketServer::CloseWant
SocketServer::flushLocked(Conn &C, std::unique_lock<std::mutex> &Lock) {
  if (C.Flushing) {
    // The active flusher sends these bytes on its next turn.
    updateEpollLocked(C);
    return CloseWant::None;
  }
  C.Flushing = true;
  CloseWant Want = CloseWant::None;
  while (!C.Closed && !C.WantWrite) {
    if (C.SendPos == C.Sending.size()) {
      if (C.Out.empty())
        break;
      C.Sending.clear();
      C.SendPos = 0;
      C.Sending.swap(C.Out);
    }
    if (netProbe(FaultSite::ClientStall)) {
      // The peer's receive window is full: behave exactly like EAGAIN so
      // the EPOLLOUT path gets exercised.
      bump(Net.StallFaults);
      C.WantWrite = true;
      break;
    }
    if (netProbe(FaultSite::ConnReset)) {
      bump(Net.ResetFaults);
      Want = CloseWant::Reset;
      break;
    }
    size_t N = C.Sending.size() - C.SendPos;
    if (netProbe(FaultSite::NetPartialIo)) {
      bump(Net.PartialIoFaults);
      N = 1;
    }
    const uint8_t *Bytes = C.Sending.data() + C.SendPos;
    Lock.unlock();
    ssize_t W = ::send(C.Fd, Bytes, N, MSG_NOSIGNAL);
    int Err = errno;
    Lock.lock();
    if (W < 0) {
      if (Err == EINTR)
        continue;
      if (Err == EAGAIN || Err == EWOULDBLOCK) {
        C.WantWrite = true;
        break;
      }
      Want = Err == EPIPE || Err == ECONNRESET ? CloseWant::Reset
                                               : CloseWant::Close;
      break;
    }
    C.SendPos += static_cast<size_t>(W);
    C.OutTotalFlushed += static_cast<uint64_t>(W);
    bump(Net.BytesOut, static_cast<uint64_t>(W));
    while (!C.RespEnds.empty() && C.RespEnds.front() <= C.OutTotalFlushed) {
      C.RespEnds.pop_front();
      bump(Net.ResponsesDelivered);
    }
  }
  C.Flushing = false;
  if (Want != CloseWant::None)
    C.Closed = true; // the loop closes the fd; the output is dead now
  if (C.Closed) {
    C.orphanAll(Net);
    return Want;
  }
  if (C.pendingOut() == 0 && C.CloseAfterFlush && C.InFlightCount == 0)
    return CloseWant::Close;
  // Backpressure low-water mark: resume reads once the backlog halves.
  if (C.ReadPaused && !C.Doomed &&
      PhaseFlag.load(std::memory_order_acquire) ==
          static_cast<int>(Phase::Running) &&
      C.pendingOut() < Opts.MaxConnBacklogBytes / 2)
    C.ReadPaused = false;
  updateEpollLocked(C);
  return Want;
}

void SocketServer::flushConn(Conn &C) {
  uint64_t Id = C.Id;
  std::unique_lock<std::mutex> Lock(C.Mu);
  if (!C.Flushing)
    C.WantWrite = false; // the loop retries a blocked socket itself
  CloseWant Want = flushLocked(C, Lock);
  Lock.unlock();
  if (Want != CloseWant::None)
    closeConn(Id, Want == CloseWant::Reset);
}

bool SocketServer::handleFrame(Conn &C, const std::vector<uint8_t> &Payload) {
  uint64_t BaseNs = C.FrameStartNs ? C.FrameStartNs : obsNowNanos();
  C.FrameStartNs = 0;

  WireRequest Req;
  bool Parsed = parseRequestPayload(Payload.data(), Payload.size(), Req);
  // An index admitted earlier in this same read counts as in flight even
  // when a worker has already answered it, so a pipelined duplicate is
  // refused whatever the timing.
  bool Duplicate = Parsed && std::find(ReadAdmitted.begin(), ReadAdmitted.end(),
                                       Req.Index) != ReadAdmitted.end();
  if (Parsed && !Duplicate) {
    std::lock_guard<std::mutex> Lock(InFlightMu);
    Duplicate = InFlight.count(Req.Index) != 0;
  }
  if (!Parsed || Duplicate) {
    // Schema violation, or an index already in flight, which would make
    // response matching ambiguous.
    ++Net.BadPayload;
    ++Net.ProtocolErrors;
    doom(C);
    return true;
  }

  uint64_t DeadlineNs =
      Req.DeadlineMillis ? BaseNs + Req.DeadlineMillis * MillisToNanos : 0;
  if (DeadlineNs && obsNowNanos() > DeadlineNs) {
    // Expired before admission: answer without burning a shard on work
    // whose answer nobody is waiting for.
    ++Net.DeadlineRejected;
    enqueueResponse(C, {Req.Index, WireStatus::DeadlineExpired, TrapKind::None,
                        0, 0, 0, 0},
                    /*Booked=*/true);
    return true;
  }

  unsigned Shard =
      shardForRequest(Opts.Pool.RootSeed, Req.Index, Opts.Shards);
  // Insert before submit(): a worker may answer the request before
  // submit() returns. Neither lock is held across submit(), which may
  // deliver outcomes on this thread (a process shard's death path).
  {
    std::lock_guard<std::mutex> Lock(InFlightMu);
    InFlight.emplace(Req.Index, InFlightReq{C.shared_from_this(), DeadlineNs});
  }
  C.InFlightCount.fetch_add(1, std::memory_order_relaxed);
  if (!Shards[Shard]->submit({Req.Index, std::move(Req.Inputs)})) {
    {
      std::lock_guard<std::mutex> Lock(InFlightMu);
      InFlight.erase(Req.Index);
    }
    C.InFlightCount.fetch_sub(1, std::memory_order_relaxed);
    ++Net.WireShed;
    enqueueResponse(C, {Req.Index, WireStatus::Shed, TrapKind::None, 0, 0, 0,
                        0},
                    /*Booked=*/true);
    return true;
  }
  ++Net.RequestsAdmitted;
  ReadAdmitted.push_back(Req.Index);
  // Process-isolation chaos: a seeded SIGKILL of the child that just
  // admitted this request. The kill perturbs only *delivery* — the death
  // path re-forks and replays the in-flight requests, whose outcomes are
  // pure functions of (RootSeed, Index) — so the digest is unchanged.
  if (!ProcShards.empty() && netProbe(FaultSite::ShardKill)) {
    ++Net.ShardKillFaults;
    ProcShards[Shard]->injectKill();
  }
  return false;
}

bool SocketServer::pumpDecoder(Conn &C) {
  std::vector<uint8_t> Payload;
  FrameError Err;
  bool Wrote = false;
  while (!C.Doomed) {
    FrameDecoder::Item I = C.Decoder.next(Payload, Err);
    if (I == FrameDecoder::Item::None)
      break;
    if (I == FrameDecoder::Item::Error) {
      ++Net.ProtocolErrors;
      if (Err == FrameError::Oversize)
        ++Net.FrameOversize;
      else
        ++Net.FrameZeroLength;
      doom(C);
      return true;
    }
    ++Net.FramesDecoded;
    Wrote |= handleFrame(C, Payload);
  }
  return Wrote;
}

void SocketServer::handleReadable(Conn &C) {
  uint8_t Buf[65536];
  bool Wrote = false; // the loop queued a response of its own
  ReadAdmitted.clear();
  for (;;) {
    size_t Want = sizeof Buf;
    if (netProbe(FaultSite::NetPartialIo)) {
      bump(Net.PartialIoFaults);
      Want = 1;
    }
    ssize_t R = ::recv(C.Fd, Buf, Want, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      closeConn(C.Id, errno == ECONNRESET);
      return;
    }
    if (R == 0) {
      // Peer closed. A close mid-frame is a protocol error (the peer's
      // framing promised bytes it never sent).
      if (C.Decoder.finalize() == FrameError::Truncated) {
        ++Net.FrameTruncated;
        ++Net.ProtocolErrors;
      }
      closeConn(C.Id, false);
      return;
    }
    Net.BytesIn += static_cast<uint64_t>(R);
    bool WasMidFrame = C.Decoder.midFrame();
    C.Decoder.feed(Buf, static_cast<size_t>(R));
    if (!WasMidFrame)
      C.FrameStartNs = obsNowNanos();
    Wrote |= pumpDecoder(C);
    if (!C.Decoder.midFrame())
      C.FrameStartNs = 0;
    if (C.Doomed || C.ReadPaused)
      break;
    if (static_cast<size_t>(R) < Want)
      break; // socket drained (level-trigger re-reports if not)
  }
  // Admitted requests are answered by the threads that serve them; only
  // the loop's own answers (shed, expired, protocol error) flush here.
  if (Wrote)
    flushConn(C); // may close C; nothing touches it afterwards
}

void SocketServer::handleWritable(Conn &C) { flushConn(C); }

void SocketServer::completeOutcome(const PoolOutcome &O) {
  InFlightReq Entry;
  {
    std::lock_guard<std::mutex> Lock(InFlightMu);
    auto It = InFlight.find(O.Index);
    if (It == InFlight.end())
      return; // not a wire request (defensive; should not happen)
    Entry = std::move(It->second);
    InFlight.erase(It);
  }
  WireResponse R;
  R.Index = O.Index;
  R.Status = O.Poisoned ? WireStatus::Poisoned
             : O.Trap != TrapKind::None ? WireStatus::Trapped
                                        : WireStatus::Ok;
  R.Trap = O.Trap;
  R.Attempts = O.Attempts;
  R.ReturnValue = O.ReturnValue;
  R.Steps = O.Steps;
  bool Missed = Entry.DeadlineNs && obsNowNanos() > Entry.DeadlineNs;
  if (Missed)
    R.Flags |= RespFlagDeadlineMissed;
  std::vector<uint8_t> Frame = encodeResponseFrame(R);

  Conn &C = *Entry.C;
  std::unique_lock<std::mutex> Lock(C.Mu);
  // Under Mu, so a flusher that sees no response owed and nothing in
  // flight on a doomed connection can close it without losing this one.
  C.InFlightCount.fetch_sub(1, std::memory_order_relaxed);
  // A connection that died while the request was served orphans it.
  if (appendLocked(C, Frame, /*Booked=*/true) && Missed)
    bump(Net.DeadlineMissed);
  CloseWant Want = flushLocked(C, Lock);
  Lock.unlock();
  if (Want != CloseWant::None)
    queueClose(C.Id, Want == CloseWant::Reset);
}

void SocketServer::loopMain() {
  int AppliedPhase = static_cast<int>(Phase::Running);
  uint64_t FlushDeadlineNs = 0;

  for (;;) {
    int P = PhaseFlag.load(std::memory_order_acquire);
    if (P >= static_cast<int>(Phase::Quiesce) &&
        AppliedPhase < static_cast<int>(Phase::Quiesce)) {
      // Drain step 1: stop accepting, stop reading. In-flight requests
      // keep completing and responses keep flushing.
      if (ListenerArmed) {
        ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, ListenFd, nullptr);
        ListenerArmed = false;
      }
      for (auto &[Id, C] : Conns) {
        std::lock_guard<std::mutex> Lock(C->Mu);
        C->ReadPaused = true;
        updateEpollLocked(*C);
      }
      AppliedPhase = static_cast<int>(Phase::Quiesce);
      Quiesced.store(true, std::memory_order_release);
      Quiesced.notify_all();
    }
    if (P >= static_cast<int>(Phase::Flush) &&
        AppliedPhase < static_cast<int>(Phase::Flush)) {
      // Drain step 2: the shards have finished, so every outcome has been
      // answered on its connection. Apply the closes those answers asked
      // for, then push the last bytes out within one drain budget.
      drainCloseQueue();
      FlushDeadlineNs =
          obsNowNanos() + uint64_t(Opts.DrainTimeoutMillis) * MillisToNanos;
      std::vector<uint64_t> Ids;
      for (auto &[Id, C] : Conns)
        Ids.push_back(Id);
      for (uint64_t Id : Ids) {
        auto It = Conns.find(Id);
        if (It != Conns.end())
          flushConn(*It->second);
      }
      AppliedPhase = static_cast<int>(Phase::Flush);
    }
    if (AppliedPhase == static_cast<int>(Phase::Flush)) {
      bool AllFlushed = true;
      for (auto &[Id, C] : Conns) {
        std::lock_guard<std::mutex> Lock(C->Mu);
        if (C->pendingOut())
          AllFlushed = false;
      }
      if (AllFlushed || obsNowNanos() > FlushDeadlineNs) {
        std::vector<uint64_t> Ids;
        for (auto &[Id, C] : Conns)
          Ids.push_back(Id);
        for (uint64_t Id : Ids)
          closeConn(Id, false); // orphans whatever could not be flushed
        return;
      }
    }

    for (ChildProcessShard *S : ProcShards)
      S->service();

    // Every wake is an fd: a connection's request bytes, the eventfd's
    // stop, drain and close requests, a shard's pidfd its child's exit. The one wall-clock
    // deadline is the drain's final flush.
    int TimeoutMillis = -1;
    if (AppliedPhase == static_cast<int>(Phase::Flush)) {
      uint64_t Now = obsNowNanos();
      uint64_t Left = Now < FlushDeadlineNs ? FlushDeadlineNs - Now : 0;
      TimeoutMillis = static_cast<int>(std::min<uint64_t>(
          (Left + MillisToNanos - 1) / MillisToNanos, INT_MAX));
    }
    epoll_event Events[64];
    int N = ::epoll_wait(EpollFd, Events, 64, TimeoutMillis);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return; // epoll itself failed; nothing sane left to do
    }
    for (int I = 0; I != N; ++I) {
      uint64_t Id = Events[I].data.u64;
      uint32_t Ev = Events[I].events;
      if (Id == ListenerId) {
        if (AppliedPhase == static_cast<int>(Phase::Running))
          handleAccept();
        continue;
      }
      if (Id == WakeId) {
        uint64_t Count = 0;
        (void)!::read(WakeEventFd, &Count, sizeof Count); // one read clears
        drainCloseQueue();
        continue;
      }
      if (Id >= ShardPidIdBase) {
        size_t SIdx = static_cast<size_t>(Id & 0xFFFF);
        if (SIdx >= ProcShards.size())
          continue;
        ChildProcessShard &S = *ProcShards[SIdx];
        if (Id < ShardIdBase) {
          S.onExited(); // the pidfd: the child exited
          continue;
        }
        if (Ev & (EPOLLIN | EPOLLHUP | EPOLLERR))
          S.onReadable();
        if (Ev & EPOLLOUT)
          S.onWritable();
        continue;
      }
      auto It = Conns.find(Id);
      if (It == Conns.end())
        continue; // closed earlier in this batch
      if (Ev & EPOLLIN)
        handleReadable(*It->second);
      It = Conns.find(Id);
      if (It == Conns.end())
        continue;
      if (Ev & EPOLLOUT)
        handleWritable(*It->second);
      It = Conns.find(Id);
      if (It == Conns.end())
        continue;
      if ((Ev & (EPOLLHUP | EPOLLERR)) && !(Ev & (EPOLLIN | EPOLLOUT)))
        closeConn(Id, true);
    }
  }
}

DrainReport SocketServer::drain() {
  if (Drained || !Started) {
    Drained = true;
    return Report;
  }
  Drained = true;

  PhaseFlag.store(static_cast<int>(Phase::Quiesce), std::memory_order_release);
  wakeLoop();
  // A worker can answer a request before the loop's submit() has returned
  // and booked it: wait until the loop stops reading, so the shard books
  // frozen below count every request the loop admitted.
  Quiesced.wait(false, std::memory_order_acquire);

  // Drain every shard inside the budget; one laggard escalates ALL shards
  // to cancellation so drain() has a bounded worst case. Cancelled runs
  // are booked poisoned (PoisonedPoolDeath), which keeps the identity
  // exact and makes an unclean drain visible in the report.
  bool Clean = true;
  for (auto &S : Shards)
    if (!S->drainWithin(Opts.DrainTimeoutMillis))
      Clean = false;
  if (!Clean)
    for (auto &S : Shards)
      S->shutdownNow();

  std::vector<PoolOutcome> All;
  for (auto &S : Shards) {
    std::vector<PoolOutcome> O = S->finish(); // joins; every OnOutcome fired
    All.insert(All.end(), O.begin(), O.end());
    Report.PerShard.push_back(S->books());
  }
  std::sort(All.begin(), All.end(),
            [](const PoolOutcome &A, const PoolOutcome &B) {
              return A.Index < B.Index;
            });

  PhaseFlag.store(static_cast<int>(Phase::Flush), std::memory_order_release);
  wakeLoop();
  if (LoopThread.joinable())
    LoopThread.join();

  for (const PoolBooks &B : Report.PerShard)
    mergePoolBooks(Report.Pool, B);
  Report.Clean = Clean;
  Report.Net = Net;
  Report.Outcomes = std::move(All);
  Report.IdentityOk = Report.Net.wireIdentityHolds(Report.Pool);
  return Report;
}
