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
/// accepts to collide). A pidfd's low bits are its shard index; a
/// channel's id is ShardIdBase | Shard << ChannelBits | Worker, and the
/// control channel takes Worker = the worker count. Each shard
/// adds and deletes its own entries (ChildProcessShard).
constexpr uint64_t ShardPidIdBase = 0xFFFE'0000'0000'0000ull;
constexpr uint64_t ShardIdBase = 0xFFFF'0000'0000'0000ull;
constexpr unsigned ChannelBits = 24;

constexpr uint64_t MillisToNanos = 1000u * 1000u;

} // namespace

NetBooks &NetBooks::operator+=(const NetBooks &O) {
  ConnectionsAccepted += O.ConnectionsAccepted;
  ConnectionsClosed += O.ConnectionsClosed;
  ConnectionsRefused += O.ConnectionsRefused;
  ConnectionsReset += O.ConnectionsReset;
  AcceptFaults += O.AcceptFaults;
  PartialIoFaults += O.PartialIoFaults;
  StallFaults += O.StallFaults;
  ResetFaults += O.ResetFaults;
  ShardDeaths += O.ShardDeaths;
  ShardDeathsBySignal += O.ShardDeathsBySignal;
  ShardRestarts += O.ShardRestarts;
  ShardReplays += O.ShardReplays;
  ShardKillFaults += O.ShardKillFaults;
  ShardIpcFaults += O.ShardIpcFaults;
  BytesIn += O.BytesIn;
  BytesOut += O.BytesOut;
  FramesDecoded += O.FramesDecoded;
  ProtocolErrors += O.ProtocolErrors;
  FrameOversize += O.FrameOversize;
  FrameZeroLength += O.FrameZeroLength;
  FrameTruncated += O.FrameTruncated;
  BadPayload += O.BadPayload;
  RequestsAdmitted += O.RequestsAdmitted;
  WireShed += O.WireShed;
  DeadlineRejected += O.DeadlineRejected;
  DeadlineMissed += O.DeadlineMissed;
  ResponsesDelivered += O.ResponsesDelivered;
  ResponsesOrphaned += O.ResponsesOrphaned;
  return *this;
}

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

/// One client connection, owned by one loop: only that loop's thread
/// reads it, answers it and closes it.
struct SocketServer::Conn {
  int Fd = -1;
  uint64_t Id = 0;

  FrameDecoder Decoder;
  /// First byte of the frame currently being assembled (deadline base);
  /// 0 = not mid-frame.
  uint64_t FrameStartNs = 0;
  bool Doomed = false;     ///< Protocol error: no further frames.
  bool ReadPaused = false; ///< Backpressure, a doomed stream, or drain.
  bool CloseAfterFlush = false;
  bool WantWrite = false; ///< EPOLLOUT armed (kernel buffer was full).
  int ArmedEvents = -1;   ///< Last epoll mask installed (-1 = none yet).
  /// Process mode: admitted requests whose outcome has not come back. A
  /// doomed connection stays open until they are answered.
  unsigned InFlight = 0;

  /// Encoded responses; [OutPos, Out.size()) is unsent.
  std::vector<uint8_t> Out;
  size_t OutPos = 0;
  /// Delivery accounting runs in lifetime-offset space: RespEnds holds
  /// each booked response's end offset in OutTotalEnqueued coordinates,
  /// and a response is Delivered the moment OutTotalFlushed passes its
  /// end, i.e. when send() has accepted its last byte.
  uint64_t OutTotalEnqueued = 0;
  uint64_t OutTotalFlushed = 0;
  std::deque<uint64_t> RespEnds;

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  size_t pendingOut() const { return Out.size() - OutPos; }
};

/// One epoll event loop and the connections it owns. Only its own thread
/// touches it after start(), except Handoff (under HandoffMu) and the
/// eventfd.
struct SocketServer::Loop {
  int EpollFd = -1;
  /// Wakes the loop for drain phases and handed-over connections.
  int WakeFd = -1;
  /// Thread mode: the pool worker this loop serves its requests on.
  WorkerPool *Pool = nullptr;
  unsigned Worker = 0;
  NetBooks Net;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  /// Indices admitted during the current handleReadable call: a
  /// pipelined duplicate is refused even once the first copy is answered.
  std::vector<uint64_t> ReadAdmitted;
  int AppliedPhase = 0;
  uint64_t FlushDeadlineNs = 0;
  /// Connections Loops[0] accepted for this loop: (fd, connection id).
  std::mutex HandoffMu;
  std::vector<std::pair<int, uint64_t>> Handoff;

  std::vector<uint64_t> connIds() const {
    std::vector<uint64_t> Ids;
    for (auto &[Id, C] : Conns)
      Ids.push_back(Id);
    return Ids;
  }

  ~Loop() {
    for (auto [Fd, Id] : Handoff)
      ::close(Fd);
    Conns.clear();
    for (int Fd : {EpollFd, WakeFd})
      if (Fd >= 0)
        ::close(Fd);
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
  Pools.clear();
  Loops.clear();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

void SocketServer::wake(Loop &L) {
  uint64_t One = 1;
  (void)!::write(L.WakeFd, &One, sizeof One);
}

void SocketServer::wakeAll() {
  for (auto &L : Loops)
    wake(*L);
}

bool SocketServer::netProbe(FaultSite Site) {
  if (NetInjector)
    return NetInjector->shouldFail(Site);
  // The process-wide slot keeps the sites probe-able from tests that
  // install a ProcessFaultScope instead of configuring the server. Never
  // the thread slot: the socket layer is not any request's fault plan.
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

  if (Opts.InjectNetFaults)
    NetInjector = std::make_unique<FaultInjector>(Opts.NetFaultPlan);

  // Shards: same module, same RootSeed — a request's outcome depends only
  // on its index, so which worker or shard serves it (and the isolation
  // mode) is invisible to results. The server answers every outcome
  // itself; the pool's hook is not its business.
  PoolOptions ShardOpts = Opts.Pool;
  ShardOpts.OnOutcome = nullptr;
  const bool Threads = Opts.Mode == ShardMode::Thread;
  if (Threads)
    for (unsigned I = 0; I != Opts.Shards; ++I)
      Pools.push_back(std::make_unique<WorkerPool>(M, ShardOpts));
  const size_t NumLoops =
      Threads ? size_t(Opts.Shards) * Pools.front()->workerCount() : 1;
  for (size_t I = 0; I != NumLoops; ++I) {
    auto L = std::make_unique<Loop>();
    L->WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (L->WakeFd < 0)
      return SysFail("eventfd");
    L->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (L->EpollFd < 0)
      return SysFail("epoll_create1");
    epoll_event Ev = {};
    Ev.events = EPOLLIN;
    Ev.data.u64 = WakeId;
    if (::epoll_ctl(L->EpollFd, EPOLL_CTL_ADD, L->WakeFd, &Ev) < 0)
      return SysFail("epoll_ctl(wake)");
    if (Threads) {
      L->Pool = Pools[I % Opts.Shards].get();
      L->Worker = static_cast<unsigned>(I / Opts.Shards);
    }
    Loops.push_back(std::move(L));
  }
  epoll_event Ev = {};
  Ev.events = EPOLLIN;
  Ev.data.u64 = ListenerId;
  if (::epoll_ctl(Loops.front()->EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev) < 0)
    return SysFail("epoll_ctl(listener)");

  if (!Threads) {
    Loop &L = *Loops.front();
    ShardHooks Hooks;
    Hooks.DeliverOutcome = [this](const PoolOutcome &O) { completeOutcome(O); };
    Hooks.Probe = [this](FaultSite S) { return netProbe(S); };
    Hooks.WakeLoop = [this, &L] { wake(L); };
    for (unsigned I = 0; I != Opts.Shards; ++I) {
      auto C = std::make_unique<ChildProcessShard>(
          M, ShardOpts, I, Opts.ShardRestartBudget, L.Net, Hooks, L.EpollFd,
          ShardIdBase | uint64_t(I) << ChannelBits, ShardPidIdBase | I);
      std::string ChildErr;
      if (!C->start(&ChildErr))
        return Fail(ChildErr);
      ProcShards.push_back(std::move(C));
    }
  }

  Started = true;
  if (Threads) {
    // Each worker thread is a serving loop: loop W * Shards + S runs on
    // worker W of shard S.
    for (unsigned S = 0; S != Opts.Shards; ++S)
      Pools[S]->startServing([this, S](unsigned W) {
        size_t I = size_t(W) * Opts.Shards + S;
        std::string Name = "ss-serve-" + std::to_string(I);
        Name.resize(std::min<size_t>(Name.size(), 15)); // the kernel's limit
        pthread_setname_np(pthread_self(), Name.c_str());
        loopMain(*Loops[I]);
      });
    return true;
  }
  LoopThread = std::thread([this] {
    pthread_setname_np(pthread_self(), "ss-loop");
    loopMain(*Loops.front());
    // From here on nothing services the shards: a drain that still
    // waits on one may take its child down itself.
    for (auto &S : ProcShards)
      S->loopExited();
  });
  return true;
}

void SocketServer::requestStop() {
  StopFlag.store(true, std::memory_order_release);
}

void SocketServer::updateEpoll(Loop &L, Conn &C) {
  int Want = (C.ReadPaused ? 0 : int(EPOLLIN)) |
             (C.WantWrite ? int(EPOLLOUT) : 0);
  if (Want == C.ArmedEvents)
    return;
  epoll_event Ev = {};
  Ev.events = static_cast<uint32_t>(Want);
  Ev.data.u64 = C.Id;
  ::epoll_ctl(L.EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
  C.ArmedEvents = Want;
}

void SocketServer::handleAccept(Loop &L) {
  if (netProbe(FaultSite::AcceptFailure)) {
    // Transient accept failure (EMFILE pressure). Level-triggered epoll
    // re-reports the listener, so the pending connection is retried on
    // the next loop iteration with a fresh probe.
    ++L.Net.AcceptFaults;
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
    if (OpenConns.load(std::memory_order_relaxed) >= Opts.MaxConnections) {
      ++L.Net.ConnectionsRefused;
      ::close(Fd);
      continue;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
    OpenConns.fetch_add(1, std::memory_order_relaxed);
    ++L.Net.ConnectionsAccepted;
    // Connection k in accept order belongs to loop k mod Loops.size().
    uint64_t Id = NextConnId++;
    Loop &Owner = *Loops[(Id - 2) % Loops.size()];
    if (&Owner == &L) {
      adopt(L, Fd, Id);
      continue;
    }
    {
      std::lock_guard<std::mutex> Lock(Owner.HandoffMu);
      Owner.Handoff.emplace_back(Fd, Id);
    }
    wake(Owner);
  }
}

void SocketServer::adopt(Loop &L, int Fd, uint64_t Id) {
  auto C = std::make_unique<Conn>();
  C->Fd = Fd;
  C->Id = Id;
  // A connection handed over after its loop quiesced is never read.
  C->ReadPaused = L.AppliedPhase != static_cast<int>(Phase::Running);
  epoll_event Ev = {};
  Ev.events = C->ReadPaused ? 0u : uint32_t(EPOLLIN);
  Ev.data.u64 = Id;
  if (::epoll_ctl(L.EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0) {
    ++L.Net.ConnectionsClosed; // ~Conn closes the fd
    OpenConns.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  C->ArmedEvents = static_cast<int>(Ev.events);
  L.Conns.emplace(Id, std::move(C));
}

void SocketServer::adoptHandoffs(Loop &L) {
  std::vector<std::pair<int, uint64_t>> Batch;
  {
    std::lock_guard<std::mutex> Lock(L.HandoffMu);
    Batch.swap(L.Handoff);
  }
  for (auto [Fd, Id] : Batch)
    adopt(L, Fd, Id);
}

void SocketServer::closeConn(Loop &L, uint64_t Id, bool CountReset) {
  auto It = L.Conns.find(Id);
  if (It == L.Conns.end())
    return;
  std::unique_ptr<Conn> C = std::move(It->second);
  L.Conns.erase(It);
  // Responses queued but not fully written die with the connection; in
  // process mode so do the answers to its requests still in flight.
  L.Net.ResponsesOrphaned += C->RespEnds.size();
  ++L.Net.ConnectionsClosed;
  if (CountReset)
    ++L.Net.ConnectionsReset;
  ::epoll_ctl(L.EpollFd, EPOLL_CTL_DEL, C->Fd, nullptr);
  OpenConns.fetch_sub(1, std::memory_order_relaxed);
}

void SocketServer::enqueueResponse(Conn &C, const WireResponse &R,
                                   bool Booked) {
  std::vector<uint8_t> Frame = encodeResponseFrame(R);
  // Anti-ratchet: drop the sent prefix once it is most of the buffer.
  if (C.OutPos > 4096 && C.OutPos * 2 > C.Out.size()) {
    C.Out.erase(C.Out.begin(),
                C.Out.begin() + static_cast<ptrdiff_t>(C.OutPos));
    C.OutPos = 0;
  }
  C.Out.insert(C.Out.end(), Frame.begin(), Frame.end());
  C.OutTotalEnqueued += Frame.size();
  if (Booked)
    C.RespEnds.push_back(C.OutTotalEnqueued);
  if (C.pendingOut() > Opts.MaxConnBacklogBytes)
    C.ReadPaused = true; // resumed by a flush below the low-water mark
}

void SocketServer::answer(Loop &L, Conn &C, const PoolOutcome &O,
                          uint64_t DeadlineNs) {
  WireResponse R;
  R.Index = O.Index;
  R.Status = O.Poisoned ? WireStatus::Poisoned
             : O.Trap != TrapKind::None ? WireStatus::Trapped
                                        : WireStatus::Ok;
  R.Trap = O.Trap;
  R.Attempts = O.Attempts;
  R.ReturnValue = O.ReturnValue;
  R.Steps = O.Steps;
  if (DeadlineNs && obsNowNanos() > DeadlineNs) {
    R.Flags |= RespFlagDeadlineMissed;
    ++L.Net.DeadlineMissed;
  }
  enqueueResponse(C, R, /*Booked=*/true);
}

void SocketServer::doom(Loop &L, Conn &C) {
  // The peer is confused or hostile, and there is no safe way to keep
  // interpreting its stream: answer with a notice, read nothing more, and
  // close once the responses already owed are out.
  enqueueResponse(C, {0, WireStatus::ProtocolError, TrapKind::None, 0, 0, 0, 0},
                  /*Booked=*/false);
  C.Doomed = true;
  C.CloseAfterFlush = true;
  C.ReadPaused = true;
  updateEpoll(L, C);
}

void SocketServer::flushConn(Loop &L, Conn &C) {
  enum class CloseWant { None, Close, Reset } Want = CloseWant::None;
  C.WantWrite = false;
  while (C.OutPos != C.Out.size()) {
    if (netProbe(FaultSite::ClientStall)) {
      // The peer's receive window is full: behave exactly like EAGAIN so
      // the EPOLLOUT path gets exercised.
      ++L.Net.StallFaults;
      C.WantWrite = true;
      break;
    }
    if (netProbe(FaultSite::ConnReset)) {
      ++L.Net.ResetFaults;
      Want = CloseWant::Reset;
      break;
    }
    size_t N = C.Out.size() - C.OutPos;
    if (netProbe(FaultSite::NetPartialIo)) {
      ++L.Net.PartialIoFaults;
      N = 1;
    }
    ssize_t W = ::send(C.Fd, C.Out.data() + C.OutPos, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        C.WantWrite = true;
        break;
      }
      Want = errno == EPIPE || errno == ECONNRESET ? CloseWant::Reset
                                                   : CloseWant::Close;
      break;
    }
    C.OutPos += static_cast<size_t>(W);
    C.OutTotalFlushed += static_cast<uint64_t>(W);
    L.Net.BytesOut += static_cast<uint64_t>(W);
    while (!C.RespEnds.empty() && C.RespEnds.front() <= C.OutTotalFlushed) {
      C.RespEnds.pop_front();
      ++L.Net.ResponsesDelivered;
    }
  }
  if (C.OutPos == C.Out.size()) {
    C.Out.clear();
    C.OutPos = 0;
  }
  if (Want == CloseWant::None && C.CloseAfterFlush && C.pendingOut() == 0 &&
      C.InFlight == 0)
    Want = CloseWant::Close;
  if (Want != CloseWant::None) {
    closeConn(L, C.Id, Want == CloseWant::Reset);
    return;
  }
  // Backpressure low-water mark: resume reads once the backlog halves.
  if (C.ReadPaused && !C.Doomed &&
      L.AppliedPhase == static_cast<int>(Phase::Running) &&
      C.pendingOut() < Opts.MaxConnBacklogBytes / 2)
    C.ReadPaused = false;
  updateEpoll(L, C);
}

void SocketServer::handleFrame(Loop &L, Conn &C,
                               const std::vector<uint8_t> &Payload) {
  uint64_t BaseNs = C.FrameStartNs ? C.FrameStartNs : obsNowNanos();
  C.FrameStartNs = 0;

  WireRequest Req;
  bool Parsed = parseRequestPayload(Payload.data(), Payload.size(), Req);
  bool Duplicate =
      Parsed && (std::find(L.ReadAdmitted.begin(), L.ReadAdmitted.end(),
                           Req.Index) != L.ReadAdmitted.end() ||
                 InFlight.count(Req.Index) != 0);
  if (!Parsed || Duplicate) {
    // Schema violation, or an index already in flight, which would make
    // response matching ambiguous.
    ++L.Net.BadPayload;
    ++L.Net.ProtocolErrors;
    doom(L, C);
    return;
  }

  uint64_t DeadlineNs =
      Req.DeadlineMillis ? BaseNs + Req.DeadlineMillis * MillisToNanos : 0;
  if (DeadlineNs && obsNowNanos() > DeadlineNs) {
    // Expired before admission: answer without burning a shard on work
    // whose answer nobody is waiting for.
    ++L.Net.DeadlineRejected;
    enqueueResponse(C, {Req.Index, WireStatus::DeadlineExpired, TrapKind::None,
                        0, 0, 0, 0},
                    /*Booked=*/true);
    return;
  }

  if (L.Pool) {
    // Thread mode: serve it here and now, on this loop's own worker.
    ++L.Net.RequestsAdmitted;
    L.ReadAdmitted.push_back(Req.Index);
    answer(L, C, L.Pool->serve(L.Worker, {Req.Index, std::move(Req.Inputs)}),
           DeadlineNs);
    return;
  }

  unsigned Shard =
      shardForRequest(Opts.Pool.RootSeed, Req.Index, Opts.Shards);
  InFlight.emplace(Req.Index, InFlightReq{C.Id, DeadlineNs});
  ++C.InFlight;
  if (!ProcShards[Shard]->submit({Req.Index, std::move(Req.Inputs)})) {
    InFlight.erase(Req.Index);
    --C.InFlight;
    ++L.Net.WireShed;
    enqueueResponse(C, {Req.Index, WireStatus::Shed, TrapKind::None, 0, 0, 0,
                        0},
                    /*Booked=*/true);
    return;
  }
  ++L.Net.RequestsAdmitted;
  L.ReadAdmitted.push_back(Req.Index);
  // Process-isolation chaos: a seeded SIGKILL of the child that just
  // admitted this request. The kill perturbs only *delivery* — the death
  // path re-forks and replays the in-flight requests, whose outcomes are
  // pure functions of (RootSeed, Index) — so the digest is unchanged.
  if (netProbe(FaultSite::ShardKill)) {
    ++L.Net.ShardKillFaults;
    ProcShards[Shard]->injectKill();
  }
}

void SocketServer::pumpDecoder(Loop &L, Conn &C) {
  std::vector<uint8_t> Payload;
  FrameError Err;
  while (!C.Doomed) {
    FrameDecoder::Item I = C.Decoder.next(Payload, Err);
    if (I == FrameDecoder::Item::None)
      break;
    if (I == FrameDecoder::Item::Error) {
      ++L.Net.ProtocolErrors;
      if (Err == FrameError::Oversize)
        ++L.Net.FrameOversize;
      else
        ++L.Net.FrameZeroLength;
      doom(L, C);
      return;
    }
    ++L.Net.FramesDecoded;
    handleFrame(L, C, Payload);
  }
}

void SocketServer::handleReadable(Loop &L, Conn &C) {
  uint8_t Buf[65536];
  const uint64_t Id = C.Id;
  L.ReadAdmitted.clear();
  for (;;) {
    size_t Want = sizeof Buf;
    if (netProbe(FaultSite::NetPartialIo)) {
      ++L.Net.PartialIoFaults;
      Want = 1;
    }
    ssize_t R = ::recv(C.Fd, Buf, Want, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      closeConn(L, Id, errno == ECONNRESET);
      return;
    }
    if (R == 0) {
      // Peer closed. A close mid-frame is a protocol error (the peer's
      // framing promised bytes it never sent). What it is owed goes out
      // first, in case it only shut down its own side.
      if (C.Decoder.finalize() == FrameError::Truncated) {
        ++L.Net.FrameTruncated;
        ++L.Net.ProtocolErrors;
      }
      if (C.pendingOut())
        flushConn(L, C); // may close C
      closeConn(L, Id, false);
      return;
    }
    L.Net.BytesIn += static_cast<uint64_t>(R);
    bool WasMidFrame = C.Decoder.midFrame();
    C.Decoder.feed(Buf, static_cast<size_t>(R));
    if (!WasMidFrame)
      C.FrameStartNs = obsNowNanos();
    pumpDecoder(L, C);
    if (!C.Decoder.midFrame())
      C.FrameStartNs = 0;
    if (C.Doomed || C.ReadPaused)
      break;
    if (static_cast<size_t>(R) < Want)
      break; // socket drained (level-trigger re-reports if not)
  }
  // One send for every answer this read produced. A blocked socket waits
  // for EPOLLOUT instead.
  if (C.pendingOut() && !C.WantWrite)
    flushConn(L, C); // may close C; nothing touches it afterwards
  else
    updateEpoll(L, C);
}

void SocketServer::completeOutcome(const PoolOutcome &O) {
  Loop &L = *Loops.front();
  auto It = InFlight.find(O.Index);
  if (It == InFlight.end())
    return; // not a wire request (defensive; should not happen)
  InFlightReq Entry = It->second;
  InFlight.erase(It);
  auto CIt = L.Conns.find(Entry.ConnId);
  if (CIt == L.Conns.end()) {
    ++L.Net.ResponsesOrphaned; // the connection died while it was served
    return;
  }
  Conn &C = *CIt->second;
  --C.InFlight;
  answer(L, C, O, Entry.DeadlineNs);
  if (!C.WantWrite)
    flushConn(L, C);
}

void SocketServer::applyPhase(Loop &L, int P) {
  if (P >= static_cast<int>(Phase::Quiesce) &&
      L.AppliedPhase < static_cast<int>(Phase::Quiesce)) {
    // Drain step 1: stop accepting, stop reading. A serving loop is
    // between requests here, so everything it read has been answered; the
    // process loop's in-flight requests keep completing.
    if (&L == Loops.front().get())
      ::epoll_ctl(L.EpollFd, EPOLL_CTL_DEL, ListenFd, nullptr);
    for (auto &[Id, C] : L.Conns) {
      C->ReadPaused = true;
      updateEpoll(L, *C);
    }
    ackQuiesce(L);
  }
  if (P >= static_cast<int>(Phase::Flush) &&
      L.AppliedPhase < static_cast<int>(Phase::Flush)) {
    // Drain step 2: every outcome has been answered on its connection.
    // Push the last bytes out within one drain budget.
    L.FlushDeadlineNs =
        obsNowNanos() + uint64_t(Opts.DrainTimeoutMillis) * MillisToNanos;
    L.AppliedPhase = static_cast<int>(Phase::Flush);
    for (uint64_t Id : L.connIds()) {
      auto It = L.Conns.find(Id);
      if (It != L.Conns.end())
        flushConn(L, *It->second);
    }
  }
}

void SocketServer::ackQuiesce(Loop &L) {
  L.AppliedPhase = static_cast<int>(Phase::Quiesce);
  {
    std::lock_guard<std::mutex> Lock(QuiesceMu);
    ++QuiescedLoops;
  }
  QuiesceCv.notify_all();
}

void SocketServer::loopMain(Loop &L) {
  for (;;) {
    int P = PhaseFlag.load(std::memory_order_acquire);
    if (P != L.AppliedPhase)
      applyPhase(L, P);
    if (L.AppliedPhase == static_cast<int>(Phase::Flush)) {
      bool AllFlushed = true;
      for (auto &[Id, C] : L.Conns)
        if (C->pendingOut())
          AllFlushed = false;
      if (AllFlushed || obsNowNanos() > L.FlushDeadlineNs) {
        for (uint64_t Id : L.connIds())
          closeConn(L, Id, false); // orphans whatever could not be flushed
        return;
      }
    }

    for (auto &S : ProcShards)
      S->service();

    // Every wake is an fd: a connection's request bytes, the eventfd's
    // drain phases and handed-over connections, a shard's pidfd its
    // child's exit. The one wall-clock deadline is the drain's final
    // flush.
    int TimeoutMillis = -1;
    if (L.AppliedPhase == static_cast<int>(Phase::Flush)) {
      uint64_t Now = obsNowNanos();
      uint64_t Left = Now < L.FlushDeadlineNs ? L.FlushDeadlineNs - Now : 0;
      TimeoutMillis = static_cast<int>(std::min<uint64_t>(
          (Left + MillisToNanos - 1) / MillisToNanos, INT_MAX));
    }
    epoll_event Events[64];
    int N = ::epoll_wait(L.EpollFd, Events, 64, TimeoutMillis);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break; // epoll itself failed; nothing sane left to do
    }
    for (int I = 0; I != N; ++I) {
      uint64_t Id = Events[I].data.u64;
      uint32_t Ev = Events[I].events;
      if (Id == ListenerId) {
        if (L.AppliedPhase == static_cast<int>(Phase::Running))
          handleAccept(L);
        continue;
      }
      if (Id == WakeId) {
        uint64_t Count = 0;
        (void)!::read(L.WakeFd, &Count, sizeof Count); // one read clears
        adoptHandoffs(L);
        continue;
      }
      if (Id >= ShardPidIdBase) {
        const bool IsChannel = Id >= ShardIdBase;
        size_t SIdx =
            static_cast<size_t>((IsChannel ? Id >> ChannelBits : Id) & 0xFFFF);
        if (SIdx >= ProcShards.size())
          continue;
        ChildProcessShard &S = *ProcShards[SIdx];
        if (!IsChannel) {
          S.onExited(); // the pidfd: the child exited
          continue;
        }
        unsigned Ch = static_cast<unsigned>(Id & ((1u << ChannelBits) - 1));
        if (Ev & (EPOLLIN | EPOLLHUP | EPOLLERR))
          S.onReadable(Ch);
        if (Ev & EPOLLOUT)
          S.onWritable(Ch);
        continue;
      }
      auto It = L.Conns.find(Id);
      if (It == L.Conns.end())
        continue; // closed earlier in this batch
      if (Ev & EPOLLIN)
        handleReadable(L, *It->second);
      It = L.Conns.find(Id);
      if (It == L.Conns.end())
        continue;
      if (Ev & EPOLLOUT)
        flushConn(L, *It->second);
      It = L.Conns.find(Id);
      if (It == L.Conns.end())
        continue;
      if ((Ev & (EPOLLHUP | EPOLLERR)) && !(Ev & (EPOLLIN | EPOLLOUT)))
        closeConn(L, Id, true);
    }
  }
  // A loop that gave up early still counts as quiesced: it reads nothing.
  if (L.AppliedPhase < static_cast<int>(Phase::Quiesce))
    ackQuiesce(L);
}

DrainReport SocketServer::drain() {
  if (Drained || !Started) {
    Drained = true;
    return Report;
  }
  Drained = true;

  PhaseFlag.store(static_cast<int>(Phase::Quiesce), std::memory_order_release);
  wakeAll();
  auto AllQuiesced = [this] { return QuiescedLoops == Loops.size(); };
  std::vector<PoolOutcome> All;
  bool Clean = true;
  if (!Pools.empty()) {
    // A serving loop quiesces between requests, so once every loop has,
    // every request read has been answered. Past the budget the runs
    // still going are cancelled, booked poisoned, and answered; a drain
    // with one laggard escalates every shard, so drain() has a bounded
    // worst case.
    std::unique_lock<std::mutex> Lock(QuiesceMu);
    Clean = QuiesceCv.wait_for(
        Lock, std::chrono::milliseconds(Opts.DrainTimeoutMillis), AllQuiesced);
    if (!Clean) {
      Lock.unlock();
      for (auto &P : Pools)
        P->shutdownNow();
      Lock.lock();
      QuiesceCv.wait(Lock, AllQuiesced);
    }
  } else {
    // The process loop quiesces at once, then keeps servicing the shard
    // channels while the children drain. Cancelled runs are booked
    // poisoned (PoisonedPoolDeath), which keeps the identity exact and
    // makes an unclean drain visible in the report.
    {
      std::unique_lock<std::mutex> Lock(QuiesceMu);
      QuiesceCv.wait(Lock, AllQuiesced);
    }
    for (auto &S : ProcShards)
      if (!S->drainWithin(Opts.DrainTimeoutMillis))
        Clean = false;
    if (!Clean)
      for (auto &S : ProcShards)
        S->shutdownNow();
    for (auto &S : ProcShards) {
      std::vector<PoolOutcome> O = S->finish(); // every outcome answered
      All.insert(All.end(), O.begin(), O.end());
      Report.PerShard.push_back(S->books());
    }
  }

  PhaseFlag.store(static_cast<int>(Phase::Flush), std::memory_order_release);
  wakeAll();
  if (LoopThread.joinable())
    LoopThread.join();
  for (auto &P : Pools) {
    std::vector<PoolOutcome> O = P->finish(); // joins its serving loops
    All.insert(All.end(), O.begin(), O.end());
    Report.PerShard.push_back(P->books());
  }
  std::sort(All.begin(), All.end(),
            [](const PoolOutcome &A, const PoolOutcome &B) {
              return A.Index < B.Index;
            });

  for (const PoolBooks &B : Report.PerShard)
    mergePoolBooks(Report.Pool, B);
  for (auto &L : Loops)
    Report.Net += L->Net;
  Report.Clean = Clean;
  Report.Outcomes = std::move(All);
  Report.IdentityOk = Report.Net.wireIdentityHolds(Report.Pool);
  return Report;
}
