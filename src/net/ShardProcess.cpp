//===- net/ShardProcess.cpp - Process-isolated WorkerPool shards ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/ShardProcess.h"

#include "net/SocketServer.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace smokestack;

//===----------------------------------------------------------------------===//
// Shard child process
//===----------------------------------------------------------------------===//

namespace {

/// The entire life of a shard child. Forked from the server (initially
/// from start(), later from the loop thread on a restart), it owns a
/// fresh WorkerPool and speaks frames over \p Channel: RQS1 in, SHO1 out,
/// SCT1 both ways for the drain handshake. It leaves only through _exit —
/// never the parent's destructors, atexit handlers, or sanitizer leak
/// pass, all of which belong to the process image it was cloned from.
[[noreturn]] void shardChildMain(Module &M, PoolOptions PO, int Channel) {
  // Shed the parent's identity: the fault-injector slots inherited from
  // the forking thread, and every inherited fd except stdio and the
  // channel (the parent's epoll, listener, client connections, and
  // sibling-shard channels and pidfds must not survive in here). SIGPIPE
  // stays ignored, as inherited: writes to a dead parent must be EPIPE,
  // not death.
  detail::ProcessInjector.store(nullptr, std::memory_order_release);
  detail::ThreadInjector = nullptr;
  if (Channel != 3) {
    ::dup2(Channel, 3);
    ::close(Channel);
    Channel = 3;
  }
#ifdef SYS_close_range
  ::syscall(SYS_close_range, 4u, ~0u, 0u);
#else
  for (int Fd = 4; Fd != 1024; ++Fd)
    ::close(Fd);
#endif

  // Outcome writes come from every worker thread; one mutex serializes
  // them so frames never interleave. Writes block (the channel is the
  // child's only output and the parent drains it) and a write failure
  // means the parent is gone — nothing left to serve for.
  std::mutex WriteMtx;
  auto WriteFrame = [&WriteMtx, Channel](const std::vector<uint8_t> &F) {
    std::lock_guard<std::mutex> Lock(WriteMtx);
    size_t Off = 0;
    while (Off < F.size()) {
      ssize_t W = ::write(Channel, F.data() + Off, F.size() - Off);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        ::_exit(2);
      }
      Off += static_cast<size_t>(W);
    }
  };

  // Block admission: the parent's in-flight cap (<= QueueCapacity) is the
  // real backpressure point, so the child never sheds — shedding here
  // would be timing-dependent and break the digest contract.
  PO.Admission.Policy = AdmissionOptions::ShedPolicy::Block;
  PO.Tracer = nullptr;
  PO.OnOutcome = nullptr;
  PO.OnOutcomeBooks = [&WriteFrame](const PoolOutcome &O,
                                    const RequestBooks &B) {
    ShardOutcome SO;
    SO.Resp.Index = O.Index;
    SO.Resp.Status = O.Poisoned                  ? WireStatus::Poisoned
                     : O.Trap != TrapKind::None ? WireStatus::Trapped
                                                : WireStatus::Ok;
    SO.Resp.Trap = O.Trap;
    SO.Resp.Attempts = O.Attempts;
    SO.Resp.ReturnValue = O.ReturnValue;
    SO.Resp.Steps = O.Steps;
    SO.Books = B;
    WriteFrame(encodeShardOutcomeFrame(SO));
  };

  WorkerPool Pool(M, PO);
  Pool.start();

  FrameDecoder Dec;
  std::vector<uint8_t> Payload;
  FrameError FErr;
  uint8_t Buf[65536];
  for (;;) {
    ssize_t R = ::read(Channel, Buf, sizeof Buf);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      ::_exit(2);
    }
    if (R == 0)
      ::_exit(2); // parent died: an orphan shard has no one to answer
    Dec.feed(Buf, static_cast<size_t>(R));
    for (;;) {
      FrameDecoder::Item I = Dec.next(Payload, FErr);
      if (I == FrameDecoder::Item::None)
        break;
      if (I == FrameDecoder::Item::Error)
        ::_exit(3);
      WireRequest Req;
      ShardControl Ctl;
      if (parseRequestPayload(Payload.data(), Payload.size(), Req)) {
        (void)Pool.submit({Req.Index, std::move(Req.Inputs)});
      } else if (parseShardControlPayload(Payload.data(), Payload.size(),
                                          Ctl) &&
                 Ctl.Op == ShardControlOp::DrainCmd) {
        // Drain handshake: cooperative within the budget, escalating to
        // cancellation past it, then finish() — which streams every
        // remaining outcome (cancelled runs as poisoned) through the hook
        // BEFORE the ack, so the parent's books are complete when the ack
        // lands.
        bool Clean = Pool.drainWithin(Ctl.BudgetMillis);
        if (!Clean)
          Pool.shutdownNow();
        Pool.finish();
        ShardControl Ack;
        Ack.Op = ShardControlOp::DrainAck;
        Ack.Clean = Clean;
        WriteFrame(encodeShardControlFrame(Ack));
        ::_exit(0);
      } else {
        ::_exit(3); // the parent speaking gibberish is unrecoverable
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// ChildProcessShard — parent side
//===----------------------------------------------------------------------===//

ChildProcessShard::ChildProcessShard(Module &M, PoolOptions Opts,
                                     unsigned Index, unsigned RestartBudget,
                                     NetBooks &Net, ShardHooks Hooks,
                                     int EpollFd, uint64_t ChannelId,
                                     uint64_t PidId)
    : M(M), Opts(std::move(Opts)), Idx(Index), RestartBudget(RestartBudget),
      Net(Net), Hooks(std::move(Hooks)), EpollFd(EpollFd),
      ChannelId(ChannelId), PidId(PidId) {}

ChildProcessShard::~ChildProcessShard() {
  // No outcome delivery from a destructor: the owning server may be mid-
  // teardown. drain() already ran in every normal lifecycle.
  Hooks.DeliverOutcome = nullptr;
  abortInline();
}

bool ChildProcessShard::start(std::string *Err) { return launch(Err); }

bool ChildProcessShard::launch(std::string *Err) {
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
    if (Err)
      *Err = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  pid_t Child = ::fork();
  if (Child < 0) {
    if (Err)
      *Err = std::string("fork: ") + std::strerror(errno);
    ::close(Sv[0]);
    ::close(Sv[1]);
    return false;
  }
  if (Child == 0) {
    ::close(Sv[0]);
    shardChildMain(M, Opts, Sv[1]); // noreturn
  }
  ::close(Sv[1]);
  // The child stays unreaped until the loop waits on this pidfd, so its
  // pid cannot be recycled in between. glibc 2.36's <sys/pidfd.h> is not
  // C++-safe, hence the raw syscall (pidfd_open needs Linux >= 5.3 and
  // waitid(P_PIDFD) >= 5.4).
  int Fd = static_cast<int>(::syscall(SYS_pidfd_open, Child, 0u));
  if (Fd < 0) {
    if (Err)
      *Err = std::string("pidfd_open: ") + std::strerror(errno);
    ::close(Sv[0]); // the child reads EOF and exits
    ::waitpid(Child, nullptr, 0);
    return false;
  }
  PidFd = Fd;
  int Flags = ::fcntl(Sv[0], F_GETFL, 0);
  ::fcntl(Sv[0], F_SETFL, Flags | O_NONBLOCK);
  ::fcntl(Sv[0], F_SETFD, FD_CLOEXEC);
  ChannelFd = Sv[0];
  ChannelWantsOut = false;
  Decoder = FrameDecoder(); // a fresh channel: no partial frame carries over
  Outbound.clear();
  OutPos = 0;
  ChannelBroken = false;
  // This shard owns both epoll entries: added here, deleted before every
  // close (reapChild, closeChannel).
  epoll_event Ev = {};
  Ev.events = EPOLLIN;
  Ev.data.u64 = PidId;
  bool Watched = ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, PidFd, &Ev) == 0;
  Ev.data.u64 = ChannelId;
  if (!Watched || ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, ChannelFd, &Ev) != 0) {
    if (Err)
      *Err = std::string("epoll_ctl: ") + std::strerror(errno);
    sendKill();
    reapChild(0);
    closeChannel();
    return false;
  }
  return true;
}

std::optional<bool> ChildProcessShard::reapChild(int Options) {
  // The loop reaps with WNOHANG once the pidfd is readable, abortInline()
  // blocking right after a SIGKILL. An embedder that reaps children
  // itself, or has the kernel auto-reap them, makes waitid fail with
  // ECHILD; the child is gone all the same, cause unknown.
  siginfo_t Info = {};
  int R;
  while ((R = ::waitid(P_PIDFD, static_cast<id_t>(PidFd), &Info,
                       WEXITED | Options)) < 0 &&
         errno == EINTR) {
  }
  if (R == 0 && Info.si_pid == 0)
    return std::nullopt; // WNOHANG and the child still runs
  // DEL before close: a sibling child forked a moment ago may still hold
  // a dup of this pidfd, and then the close alone would leave the entry
  // in epoll, forever readable, under this shard's id.
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, PidFd, nullptr);
  ::close(PidFd);
  PidFd = -1;
  return Info.si_code == CLD_KILLED || Info.si_code == CLD_DUMPED;
}

void ChildProcessShard::closeChannel() {
  // DEL before close, for the same reason as the pidfd in reapChild().
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, ChannelFd, nullptr);
  ::close(ChannelFd);
  ChannelFd = -1;
}

void ChildProcessShard::onExited() {
  // A wake with the child still running is spurious: nothing to reap.
  if (PidFd < 0)
    return;
  if (std::optional<bool> Signaled = reapChild(WNOHANG))
    processDeath(*Signaled);
}

bool ChildProcessShard::submit(PoolRequest Req) {
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    ++Books.Submitted;
    if (St != State::Running) {
      // Retired (or draining — the server quiesced reads, so this is
      // defensive): the request is shed with exact books, like a closed
      // pool in thread mode.
      ++Books.Shed;
      ++Books.ShedClosed;
      return false;
    }
    if (Cache.size() >= Opts.QueueCapacity) {
      // Parent-side in-flight cap, the process-mode face of queue-full
      // shedding. Mirrors thread mode exactly when the client window is
      // below QueueCapacity (the soak's regime): neither mode sheds.
      ++Books.Shed;
      ++Books.ShedQueueFull;
      return false;
    }
    ++Books.Accepted;
  }
  WireRequest W;
  W.Index = Req.Index;
  W.DeadlineMillis = 0; // deadlines are enforced parent-side
  W.Inputs = std::move(Req.Inputs);
  std::vector<uint8_t> Frame = encodeRequestFrame(W);
  Cache.emplace(Req.Index, Frame);
  appendFrame(Frame);
  flushOutbound();
  return true;
}

void ChildProcessShard::appendFrame(const std::vector<uint8_t> &Frame) {
  // Same anti-ratchet compaction rule as the connection buffers.
  if (OutPos > 4096 && OutPos * 2 > Outbound.size()) {
    Outbound.erase(Outbound.begin(),
                   Outbound.begin() + static_cast<ptrdiff_t>(OutPos));
    OutPos = 0;
  }
  Outbound.insert(Outbound.end(), Frame.begin(), Frame.end());
}

void ChildProcessShard::flushOutbound() {
  if (ChannelFd < 0 || ChannelBroken)
    return;
  while (OutPos < Outbound.size()) {
    size_t N = Outbound.size() - OutPos;
    if (Hooks.Probe && Hooks.Probe(FaultSite::ShardIpcIo)) {
      ++Net.ShardIpcFaults;
      N = 1;
    }
    ssize_t W = ::send(ChannelFd, Outbound.data() + OutPos, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break; // EPOLLOUT is armed below
      // EPIPE etc.: the child is dying. Stop writing; the death path
      // clears this buffer and replays from the cache.
      ChannelBroken = true;
      break;
    }
    OutPos += static_cast<size_t>(W);
  }
  if (OutPos == Outbound.size()) {
    Outbound.clear();
    OutPos = 0;
  }
  bool WantOut = OutPos < Outbound.size();
  if (WantOut != ChannelWantsOut) {
    epoll_event Ev = {};
    Ev.events = EPOLLIN | (WantOut ? uint32_t(EPOLLOUT) : 0u);
    Ev.data.u64 = ChannelId;
    ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, ChannelFd, &Ev);
    ChannelWantsOut = WantOut;
  }
}

void ChildProcessShard::onWritable() { flushOutbound(); }

void ChildProcessShard::onReadable() {
  if (ChannelFd < 0)
    return;
  uint8_t Buf[65536];
  for (;;) {
    size_t Want = sizeof Buf;
    if (Hooks.Probe && Hooks.Probe(FaultSite::ShardIpcIo)) {
      ++Net.ShardIpcFaults;
      Want = 1;
    }
    ssize_t R = ::recv(ChannelFd, Buf, Want, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN, or an error the death path will explain
    }
    if (R == 0)
      break; // EOF: the reap (processDeath) owns the teardown
    Decoder.feed(Buf, static_cast<size_t>(R));
    std::vector<uint8_t> Payload;
    FrameError Err;
    for (;;) {
      FrameDecoder::Item I = Decoder.next(Payload, Err);
      if (I == FrameDecoder::Item::None)
        break;
      if (I == FrameDecoder::Item::Error) {
        // A corrupt stream from our own child: unsalvageable. Kill it;
        // the death path restarts and replays.
        killNow();
        return;
      }
      handleChildFrame(Payload);
    }
    if (static_cast<size_t>(R) < Want)
      break;
  }
}

void ChildProcessShard::handleChildFrame(const std::vector<uint8_t> &Payload) {
  ShardOutcome SO;
  ShardControl Ctl;
  if (parseShardOutcomePayload(Payload.data(), Payload.size(), SO)) {
    PoolOutcome O;
    O.Index = SO.Resp.Index;
    O.Trap = SO.Resp.Trap;
    O.ReturnValue = SO.Resp.ReturnValue;
    O.Steps = SO.Resp.Steps;
    O.Attempts = SO.Resp.Attempts;
    O.Poisoned = SO.Resp.Status == WireStatus::Poisoned;
    auto It = Cache.find(O.Index);
    if (It == Cache.end())
      return; // not in flight here: defensive (cannot happen by design)
    Cache.erase(It);
    {
      std::lock_guard<std::mutex> Lock(Mtx);
      // Exactly-once books: the delta rides the outcome, and the cache
      // erase above is what keeps a replay from ever producing a second
      // frame for this index.
      SO.Books.addTo(Books);
      if (O.Poisoned) {
        ++Books.Poisoned;
        Books.PoisonedIndices.push_back(O.Index);
      } else {
        ++Books.Completed;
      }
      Outcomes.push_back(O);
    }
    if (Hooks.DeliverOutcome)
      Hooks.DeliverOutcome(O);
    return;
  }
  if (parseShardControlPayload(Payload.data(), Payload.size(), Ctl) &&
      Ctl.Op == ShardControlOp::DrainAck) {
    // The child exits right after its ack; reaping that exit is what
    // makes the shard Drained (processDeath), so drain() never leaves a
    // zombie behind.
    Acked = true;
    std::lock_guard<std::mutex> Lock(Mtx);
    CleanAck = Ctl.Clean;
    return;
  }
  killNow(); // schema nonsense from the child: same as a corrupt stream
}

void ChildProcessShard::service() {
  bool NeedKill = false;
  bool NeedDrain = false;
  unsigned Budget = 0;
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    NeedKill = KillPending && !KillIssued;
    if (!NeedKill && St == State::DrainRequested) {
      NeedDrain = true;
      Budget = DrainBudgetMillis;
    }
  }
  if (NeedKill) {
    killNow();
    return;
  }
  if (NeedDrain)
    sendDrainCmd(Budget);
}

void ChildProcessShard::sendDrainCmd(unsigned BudgetMillis) {
  ShardControl C;
  C.Op = ShardControlOp::DrainCmd;
  C.BudgetMillis = BudgetMillis;
  appendFrame(encodeShardControlFrame(C));
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    if (St == State::Running || St == State::DrainRequested)
      St = State::DrainSent;
  }
  flushOutbound();
}

void ChildProcessShard::sendKill() {
  // Through the pidfd, never the pid: a pidfd names one process for good,
  // so a kill racing the child's exit hits the zombie or nothing, never a
  // recycled pid.
  if (PidFd >= 0)
    (void)::syscall(SYS_pidfd_send_signal, PidFd, SIGKILL, nullptr, 0u);
}

void ChildProcessShard::injectKill() {
  // A chaos kill, not an escalation: deliberately does NOT set KillIssued,
  // so the death path re-forks and replays instead of retiring — the whole
  // point is proving that a SIGKILLed shard costs the digest nothing.
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    if (KillIssued || St != State::Running)
      return; // escalated or draining
  }
  sendKill();
}

void ChildProcessShard::killNow() {
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    KillPending = true;
    // With no child (mid-death), the reap decides: service() kills the
    // replacement once the death has re-forked it.
    if (KillIssued || PidFd < 0)
      return;
    KillIssued = true;
  }
  sendKill();
}

void ChildProcessShard::processDeath(bool Signaled) {
  // Drain the dead channel to EOF first: outcomes the child wrote before
  // dying are real — processing them erases their cache entries, so they
  // are never replayed (counted exactly once). The child is reaped, so
  // there is no writer left: the reads end at EOF, never EAGAIN.
  if (ChannelFd >= 0) {
    uint8_t Buf[65536];
    for (;;) {
      ssize_t R = ::read(ChannelFd, Buf, sizeof Buf);
      if (R > 0) {
        Decoder.feed(Buf, static_cast<size_t>(R));
        std::vector<uint8_t> Payload;
        FrameError Err;
        while (Decoder.next(Payload, Err) == FrameDecoder::Item::Payload)
          handleChildFrame(Payload);
        continue;
      }
      if (R < 0 && errno == EINTR)
        continue;
      break;
    }
    closeChannel();
  }
  Decoder = FrameDecoder(); // a torn mid-write frame dies with the child
  Outbound.clear();
  OutPos = 0;
  ChannelBroken = false;

  std::unique_lock<std::mutex> Lock(Mtx);
  if (Acked) {
    // The expected drain-time exit (the ack was processed above or
    // earlier). Not a death in the books' sense.
    St = State::Drained;
    Cv.notify_all();
    return;
  }
  ++Net.ShardDeaths;
  if (Signaled)
    ++Net.ShardDeathsBySignal;
  if (KillIssued || RestartsUsed >= RestartBudget) {
    retireLocked(Lock); // unlocks
    return;
  }
  ++RestartsUsed;
  bool ResumeDrain = DrainWanted;
  unsigned Budget = DrainBudgetMillis;
  Lock.unlock();

  std::string Err;
  if (!launch(&Err)) {
    Lock.lock();
    retireLocked(Lock);
    return;
  }
  ++Net.ShardRestarts;
  Net.ShardReplays += Cache.size();
  // Replay, in index order (deterministic, though order doesn't matter —
  // each request is independent). The replayed requests were Submitted
  // once already: no admission books move here.
  for (const auto &[Index, Frame] : Cache)
    appendFrame(Frame);
  Lock.lock();
  St = ResumeDrain ? State::DrainRequested : State::Running;
  Lock.unlock();
  if (ResumeDrain)
    sendDrainCmd(Budget); // queued behind the replays on the same stream
  else
    flushOutbound();
}

void ChildProcessShard::retireLocked(std::unique_lock<std::mutex> &Lock) {
  St = State::Retired;
  // Poison everything still cached: its serving process is gone for good.
  // PoisonedPoolDeath is the same class thread mode books when a pool
  // dies under its backlog — the accounting identity outlives the shard.
  std::vector<PoolOutcome> Synth;
  for (const auto &[Index, Frame] : Cache) {
    PoolOutcome O;
    O.Index = Index;
    O.Attempts = 0;
    O.Poisoned = true;
    ++Books.Poisoned;
    ++Books.PoisonedPoolDeath;
    Books.PoisonedIndices.push_back(Index);
    Outcomes.push_back(O);
    Synth.push_back(O);
  }
  Cache.clear();
  Cv.notify_all();
  Lock.unlock();
  for (const PoolOutcome &O : Synth)
    if (Hooks.DeliverOutcome)
      Hooks.DeliverOutcome(O);
}

bool ChildProcessShard::drainWithin(unsigned Millis) {
  std::unique_lock<std::mutex> Lock(Mtx);
  if (St == State::Retired)
    return true; // nothing in flight; like draining a dead pool
  if (St == State::Drained)
    return CleanAck;
  DrainWanted = true;
  DrainBudgetMillis = Millis;
  if (St == State::Running)
    St = State::DrainRequested;
  Lock.unlock();
  if (Hooks.WakeLoop)
    Hooks.WakeLoop();
  Lock.lock();
  // Slack past the child's budget covers the SCT1 round-trip and any
  // mid-drain death (re-fork + replay restarts the child's clock).
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(uint64_t(Millis) + 2000);
  bool Done = Cv.wait_until(Lock, Deadline, [this] {
    return St == State::Drained || St == State::Retired;
  });
  return Done && (St == State::Retired || CleanAck);
}

void ChildProcessShard::shutdownNow() {
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    KillPending = true;
  }
  if (Hooks.WakeLoop)
    Hooks.WakeLoop();
}

void ChildProcessShard::loopExited() {
  std::lock_guard<std::mutex> Lock(Mtx);
  LoopGone = true;
  Cv.notify_all();
}

std::vector<PoolOutcome> ChildProcessShard::finish() {
  std::unique_lock<std::mutex> Lock(Mtx);
  auto Done = [this] { return St == State::Drained || St == State::Retired; };
  // Every 5 s without Drained/Retired, a loop that is alive but late is
  // asked (again) to kill the child; its reap retires the shard and books
  // the one death. Only a loop that has returned leaves the child to this
  // thread.
  while (!Cv.wait_for(Lock, std::chrono::seconds(5),
                      [&] { return Done() || LoopGone; })) {
    KillPending = true;
    Lock.unlock();
    if (Hooks.WakeLoop)
      Hooks.WakeLoop();
    Lock.lock();
  }
  if (!Done()) {
    // The loop returned (its epoll_wait failed) without reaping: nothing
    // else touches the loop-thread state any more.
    Lock.unlock();
    abortInline();
    Lock.lock();
  }
  return std::move(Outcomes);
}

void ChildProcessShard::abortInline() {
  if (PidFd >= 0) {
    {
      std::lock_guard<std::mutex> Lock(Mtx);
      KillIssued = true;
    }
    sendKill();
    reapChild(0);
  }
  if (ChannelFd >= 0)
    closeChannel();
  std::unique_lock<std::mutex> Lock(Mtx);
  if (St != State::Drained && St != State::Retired)
    retireLocked(Lock); // unlocks
}

PoolBooks ChildProcessShard::books() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Books;
}
