//===- net/ShardProcess.cpp - Process-isolated WorkerPool shards ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/ShardProcess.h"

#include "net/SocketServer.h"

#include <algorithm>
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

/// Closes every fd but stdio and \p Keep.
void closeInheritedFds(std::vector<int> Keep) {
  auto CloseRange = [](unsigned First, unsigned Last) {
#ifdef SYS_close_range
    ::syscall(SYS_close_range, First, Last, 0u);
#else
    for (unsigned Fd = First; Fd <= Last && Fd != 1024; ++Fd)
      ::close(static_cast<int>(Fd));
#endif
  };
  std::sort(Keep.begin(), Keep.end());
  int Lo = 3;
  for (int Fd : Keep) {
    if (Fd > Lo)
      CloseRange(Lo, Fd - 1);
    Lo = std::max(Lo, Fd + 1);
  }
  CloseRange(Lo, ~0u);
}

/// Writes all of \p Bytes to the blocking channel \p Fd. The channel is
/// the child's only output and the parent drains it; a failed write means
/// the parent is gone, with nothing left to serve for.
void writeAll(int Fd, const std::vector<uint8_t> &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t W = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      ::_exit(2);
    }
    Off += static_cast<size_t>(W);
  }
}

/// The SHO1 frame answering \p O, with the request's accounting delta.
std::vector<uint8_t> outcomeFrame(const PoolOutcome &O,
                                  const RequestBooks &Delta) {
  ShardOutcome SO;
  SO.Resp.Index = O.Index;
  SO.Resp.Status = O.Poisoned                  ? WireStatus::Poisoned
                   : O.Trap != TrapKind::None ? WireStatus::Trapped
                                              : WireStatus::Ok;
  SO.Resp.Trap = O.Trap;
  SO.Resp.Attempts = O.Attempts;
  SO.Resp.ReturnValue = O.ReturnValue;
  SO.Resp.Steps = O.Steps;
  SO.Books = Delta;
  return encodeShardOutcomeFrame(SO);
}

/// Blocks until the parent's DrainCmd arrives on the control channel
/// \p Fd, and returns its budget. Nothing else travels parent → child on
/// that channel.
unsigned readDrainCmd(int Fd) {
  FrameDecoder Dec;
  std::vector<uint8_t> Payload;
  FrameError FErr;
  uint8_t Buf[256];
  for (;;) {
    ssize_t R = ::read(Fd, Buf, sizeof Buf);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      ::_exit(2);
    }
    if (R == 0)
      ::_exit(2); // parent died: an orphan shard has no one to answer
    Dec.feed(Buf, static_cast<size_t>(R));
    FrameDecoder::Item I = Dec.next(Payload, FErr);
    if (I == FrameDecoder::Item::None)
      continue;
    ShardControl Ctl;
    if (I == FrameDecoder::Item::Payload &&
        parseShardControlPayload(Payload.data(), Payload.size(), Ctl) &&
        Ctl.Op == ShardControlOp::DrainCmd)
      return Ctl.BudgetMillis;
    ::_exit(3); // the parent speaking gibberish is unrecoverable
  }
}

/// The entire life of a shard child. Forked from the server (initially
/// from start(), later from the loop thread on a restart), it owns a
/// fresh WorkerPool whose worker W reads \p Channels[W]: RQS1 in, served
/// inline, SHO1 out on the same channel, until that channel's SCT1 drain
/// command. The last channel is the control channel: the main thread
/// reads the drain command there, runs the drain budget and writes the
/// one DrainAck. The child leaves only through _exit — never the parent's
/// destructors, atexit handlers, or sanitizer leak pass, all of which
/// belong to the process image it was cloned from.
[[noreturn]] void shardChildMain(Module &M, PoolOptions PO,
                                 const std::vector<int> &Channels) {
  // Shed the parent's identity: the fault-injector slots inherited from
  // the forking thread, and every inherited fd except stdio and the
  // channels (the parent's epoll, listener, client connections, and
  // sibling-shard channels and pidfds must not survive in here). SIGPIPE
  // stays ignored, as inherited: writes to a dead parent must be EPIPE,
  // not death.
  detail::ProcessInjector.store(nullptr, std::memory_order_release);
  detail::ThreadInjector = nullptr;
  closeInheritedFds(Channels);

  PO.Tracer = nullptr;
  PO.OnOutcome = nullptr;
  WorkerPool Pool(M, PO);
  const size_t Workers = Channels.size() - 1;
  const int ControlFd = Channels.back();

  // Workers that have read their channel's DrainCmd: each has answered
  // every request the parent sent it.
  std::mutex DrainMtx;
  std::condition_variable DrainCv;
  size_t AtDrain = 0;

  auto ServeChannel = [&](unsigned Worker) {
    const int Fd = Channels[Worker];
    FrameDecoder Dec;
    std::vector<uint8_t> Payload, Out;
    FrameError FErr;
    uint8_t Buf[65536];
    for (;;) {
      ssize_t R = ::read(Fd, Buf, sizeof Buf);
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
          RequestBooks Delta;
          const PoolOutcome &O =
              Pool.serve(Worker, {Req.Index, std::move(Req.Inputs)}, &Delta);
          std::vector<uint8_t> Frame = outcomeFrame(O, Delta);
          Out.insert(Out.end(), Frame.begin(), Frame.end());
        } else if (parseShardControlPayload(Payload.data(), Payload.size(),
                                            Ctl) &&
                   Ctl.Op == ShardControlOp::DrainCmd) {
          // The parent writes nothing after a drain command: this worker
          // is done once what it owes is on the wire.
          writeAll(Fd, Out);
          {
            std::lock_guard<std::mutex> Lock(DrainMtx);
            ++AtDrain;
          }
          DrainCv.notify_all();
          return;
        } else {
          ::_exit(3); // the parent speaking gibberish is unrecoverable
        }
      }
      // One write for every answer this read produced.
      writeAll(Fd, Out);
      Out.clear();
    }
  };
  if (!Pool.startServing(ServeChannel))
    ::_exit(3); // the parent checked the entry point: cannot happen

  // Drain handshake. The budget runs from the control channel's DrainCmd,
  // which no worker has to be free to read: wait that long for every
  // worker to reach its own command. Past it, cancel what still runs —
  // each cancelled run is answered poisoned (PoisonedPoolDeath) on its
  // own channel — and every worker still reaches its command, even one
  // that was busy when the budget started. finish() joins the workers,
  // so every outcome is written before the ack; the parent reads every
  // channel to EOF before it counts the drain done.
  const unsigned BudgetMillis = readDrainCmd(ControlFd);
  std::unique_lock<std::mutex> Lock(DrainMtx);
  bool Clean = DrainCv.wait_for(Lock, std::chrono::milliseconds(BudgetMillis),
                                [&] { return AtDrain == Workers; });
  Lock.unlock();
  if (!Clean)
    Pool.shutdownNow();
  Pool.finish();
  ShardControl Ack;
  Ack.Op = ShardControlOp::DrainAck;
  Ack.Clean = Clean;
  writeAll(ControlFd, encodeShardControlFrame(Ack));
  ::_exit(0);
}

} // namespace

//===----------------------------------------------------------------------===//
// ChildProcessShard — parent side
//===----------------------------------------------------------------------===//

ChildProcessShard::ChildProcessShard(Module &M, PoolOptions Opts,
                                     unsigned Index, unsigned RestartBudget,
                                     NetBooks &Net, ShardHooks Hooks,
                                     int EpollFd, uint64_t ChannelIdBase,
                                     uint64_t PidId)
    : M(M), Opts(std::move(Opts)), Idx(Index), RestartBudget(RestartBudget),
      Net(Net), Hooks(std::move(Hooks)), EpollFd(EpollFd),
      ChannelIdBase(ChannelIdBase), PidId(PidId) {
  this->Opts.Workers = WorkerPool::resolveWorkers(this->Opts.Workers);
  Channels.resize(this->Opts.Workers + 1); // the last is the control channel
}

ChildProcessShard::~ChildProcessShard() {
  // No outcome delivery from a destructor: the owning server may be mid-
  // teardown. drain() already ran in every normal lifecycle.
  Hooks.DeliverOutcome = nullptr;
  abortInline();
}

bool ChildProcessShard::start(std::string *Err) { return launch(Err); }

bool ChildProcessShard::launch(std::string *Err) {
  // One socketpair per child worker, then the control channel: Ours[W]
  // stays here, Theirs[W] is the child's end.
  std::vector<int> Ours, Theirs;
  auto CloseAll = [](std::vector<int> &Fds) {
    for (int Fd : Fds)
      ::close(Fd);
    Fds.clear();
  };
  for (size_t W = 0; W != Channels.size(); ++W) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Sv) != 0) {
      if (Err)
        *Err = std::string("socketpair: ") + std::strerror(errno);
      CloseAll(Ours);
      CloseAll(Theirs);
      return false;
    }
    Ours.push_back(Sv[0]);
    Theirs.push_back(Sv[1]);
  }
  pid_t Child = ::fork();
  if (Child < 0) {
    if (Err)
      *Err = std::string("fork: ") + std::strerror(errno);
    CloseAll(Ours);
    CloseAll(Theirs);
    return false;
  }
  if (Child == 0)
    shardChildMain(M, Opts, Theirs); // noreturn; closes Ours
  CloseAll(Theirs);
  // The child stays unreaped until the loop waits on this pidfd, so its
  // pid cannot be recycled in between. glibc 2.36's <sys/pidfd.h> is not
  // C++-safe, hence the raw syscall (pidfd_open needs Linux >= 5.3 and
  // waitid(P_PIDFD) >= 5.4).
  int Fd = static_cast<int>(::syscall(SYS_pidfd_open, Child, 0u));
  if (Fd < 0) {
    if (Err)
      *Err = std::string("pidfd_open: ") + std::strerror(errno);
    CloseAll(Ours); // the child reads EOF and exits
    ::waitpid(Child, nullptr, 0);
    return false;
  }
  PidFd = Fd;
  for (size_t W = 0; W != Channels.size(); ++W) {
    int Flags = ::fcntl(Ours[W], F_GETFL, 0);
    ::fcntl(Ours[W], F_SETFL, Flags | O_NONBLOCK);
    Channels[W] = Channel(); // fresh: no partial frame carries over
    Channels[W].Fd = Ours[W];
  }
  // This shard owns every epoll entry: added here, deleted before every
  // close (reapChild, closeChannels).
  epoll_event Ev = {};
  Ev.events = EPOLLIN;
  Ev.data.u64 = PidId;
  bool Watched = ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, PidFd, &Ev) == 0;
  for (size_t W = 0; Watched && W != Channels.size(); ++W) {
    Ev.data.u64 = ChannelIdBase + W;
    Watched = ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Channels[W].Fd, &Ev) == 0;
  }
  if (!Watched) {
    if (Err)
      *Err = std::string("epoll_ctl: ") + std::strerror(errno);
    sendKill();
    reapChild(0);
    closeChannels();
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

void ChildProcessShard::closeChannels() {
  // DEL before close, for the same reason as the pidfd in reapChild().
  for (Channel &C : Channels) {
    if (C.Fd < 0)
      continue;
    ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, C.Fd, nullptr);
    ::close(C.Fd);
    C.Fd = -1;
  }
}

ChildProcessShard::Channel &ChildProcessShard::leastLoaded() {
  Channel *Best = &Channels.front();
  for (unsigned W = 1; W != workerChannelCount(); ++W)
    if (Channels[W].InFlight < Best->InFlight)
      Best = &Channels[W];
  return *Best;
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
  // Encoded once: the cache entry is the replay source, and the channel
  // buffer copies from it.
  const std::vector<uint8_t> &Frame =
      Cache.emplace(Req.Index, encodeRequestFrame(W)).first->second;
  Channel &C = leastLoaded();
  ++C.InFlight;
  appendFrame(C, Frame);
  flushOutbound(C);
  return true;
}

void ChildProcessShard::appendFrame(Channel &C,
                                    const std::vector<uint8_t> &Frame) {
  // Same anti-ratchet compaction rule as the connection buffers.
  if (C.OutPos > 4096 && C.OutPos * 2 > C.Outbound.size()) {
    C.Outbound.erase(C.Outbound.begin(),
                     C.Outbound.begin() + static_cast<ptrdiff_t>(C.OutPos));
    C.OutPos = 0;
  }
  C.Outbound.insert(C.Outbound.end(), Frame.begin(), Frame.end());
}

void ChildProcessShard::flushAll() {
  for (Channel &C : Channels)
    flushOutbound(C);
}

void ChildProcessShard::flushOutbound(Channel &C) {
  if (C.Fd < 0 || C.Broken)
    return;
  while (C.OutPos < C.Outbound.size()) {
    size_t N = C.Outbound.size() - C.OutPos;
    if (Hooks.Probe && Hooks.Probe(FaultSite::ShardIpcIo)) {
      ++Net.ShardIpcFaults;
      N = 1;
    }
    ssize_t W = ::send(C.Fd, C.Outbound.data() + C.OutPos, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break; // EPOLLOUT is armed below
      // EPIPE etc.: the child is dying. Stop writing; the death path
      // clears this buffer and replays from the cache.
      C.Broken = true;
      break;
    }
    C.OutPos += static_cast<size_t>(W);
  }
  if (C.OutPos == C.Outbound.size()) {
    C.Outbound.clear();
    C.OutPos = 0;
  }
  bool WantOut = C.OutPos < C.Outbound.size();
  if (WantOut != C.WantsOut) {
    epoll_event Ev = {};
    Ev.events = EPOLLIN | (WantOut ? uint32_t(EPOLLOUT) : 0u);
    Ev.data.u64 = ChannelIdBase + static_cast<uint64_t>(&C - Channels.data());
    ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
    C.WantsOut = WantOut;
  }
}

void ChildProcessShard::onWritable(unsigned Ch) {
  if (Ch < Channels.size())
    flushOutbound(Channels[Ch]);
}

void ChildProcessShard::onReadable(unsigned Ch) {
  if (Ch >= Channels.size() || Channels[Ch].Fd < 0)
    return;
  Channel &C = Channels[Ch];
  uint8_t Buf[65536];
  FrameError Err;
  for (;;) {
    size_t Want = sizeof Buf;
    if (Hooks.Probe && Hooks.Probe(FaultSite::ShardIpcIo)) {
      ++Net.ShardIpcFaults;
      Want = 1;
    }
    ssize_t R = ::recv(C.Fd, Buf, Want, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN, or an error the death path will explain
    }
    if (R == 0)
      break; // EOF: the reap (processDeath) owns the teardown
    C.Decoder.feed(Buf, static_cast<size_t>(R));
    for (;;) {
      FrameDecoder::Item I = C.Decoder.next(RxPayload, Err);
      if (I == FrameDecoder::Item::None)
        break;
      if (I == FrameDecoder::Item::Error) {
        // A corrupt stream from our own child: unsalvageable. Kill it;
        // the death path restarts and replays.
        killNow();
        return;
      }
      handleChildFrame(RxPayload, C);
    }
    if (static_cast<size_t>(R) < Want)
      break;
  }
}

void ChildProcessShard::handleChildFrame(const std::vector<uint8_t> &Payload,
                                         Channel &From) {
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
    --From.InFlight;
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
  // Every child worker must read its own command, behind every request
  // already on its channel. The copy on the control channel reaches the
  // child's main thread at once, busy workers or not, and starts the
  // child's budget.
  ShardControl Cmd;
  Cmd.Op = ShardControlOp::DrainCmd;
  Cmd.BudgetMillis = BudgetMillis;
  const std::vector<uint8_t> Frame = encodeShardControlFrame(Cmd);
  for (Channel &C : Channels)
    appendFrame(C, Frame);
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    if (St == State::Running || St == State::DrainRequested)
      St = State::DrainSent;
  }
  flushAll();
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
  // Drain every dead channel to EOF first: outcomes the child wrote
  // before dying are real — processing them erases their cache entries,
  // so they are never replayed (counted exactly once) — and the DrainAck
  // may sit behind them. The child is reaped, so there is no writer left:
  // the reads end at EOF, never EAGAIN.
  uint8_t Buf[65536];
  FrameError FErr;
  for (Channel &C : Channels) {
    if (C.Fd < 0)
      continue;
    for (;;) {
      ssize_t R = ::read(C.Fd, Buf, sizeof Buf);
      if (R > 0) {
        C.Decoder.feed(Buf, static_cast<size_t>(R));
        while (C.Decoder.next(RxPayload, FErr) == FrameDecoder::Item::Payload)
          handleChildFrame(RxPayload, C);
        continue;
      }
      if (R < 0 && errno == EINTR)
        continue;
      break;
    }
  }
  closeChannels();
  for (Channel &C : Channels)
    C = Channel(); // a torn mid-write frame dies with the child

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
  // each request is independent), spread over the fresh child's workers.
  // The replayed requests were Submitted once already: no admission books
  // move here.
  for (const auto &[Index, Frame] : Cache) {
    Channel &C = leastLoaded();
    ++C.InFlight;
    appendFrame(C, Frame);
  }
  Lock.lock();
  St = ResumeDrain ? State::DrainRequested : State::Running;
  Lock.unlock();
  if (ResumeDrain)
    sendDrainCmd(Budget); // queued behind the replays on the same streams
  else
    flushAll();
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
  closeChannels();
  std::unique_lock<std::mutex> Lock(Mtx);
  if (St != State::Drained && St != State::Retired)
    retireLocked(Lock); // unlocks
}

PoolBooks ChildProcessShard::books() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Books;
}
