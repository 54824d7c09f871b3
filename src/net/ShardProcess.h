//===- net/ShardProcess.h - Process-isolated WorkerPool shards -*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-isolated shards under SocketServer (DESIGN.md §15): a forked
/// child process owning its own WorkerPool (ChildProcessShard), speaking
/// the length-prefixed frame protocol to the parent over one socketpair
/// per child worker plus one control socketpair, every one registered in
/// the parent's epoll loop.
///
/// Channels. The parent writes each request on the channel of the child
/// worker with the fewest requests in flight, so while one worker is
/// stuck in a long run its siblings take the new requests; only those
/// already on its channel wait for it. In the child, each pool worker
/// (WorkerPool::startServing) reads its own channel, serves each request
/// inline (WorkerPool::serve) and writes its own SHO1 frames back on it:
/// no queue, no reader thread, and no lock on any channel write, because
/// every channel has one writer at each end. The child's main thread only
/// coordinates the drain, on the control channel: it reads the drain
/// command there whatever the workers are doing, so a hung run cannot
/// hold back the drain budget, and writes the one DrainAck there.
///
/// Process isolation buys crash containment one level up from worker
/// threads: a wild write that takes out a whole shard process — not just
/// one worker — costs the parent a re-fork and a replay, not the server.
/// The replay is what makes the isolation free of observable effect: every
/// request is a pure function of (RootSeed, Index), so re-submitting the
/// requests that were in flight in a SIGKILLed child reproduces their
/// outcomes AND their per-request accounting deltas bit for bit. The
/// parent assembles the shard's PoolBooks from the deltas shipped with
/// each outcome (net/FrameCodec.h SHO1), so a dead child's unsent work is
/// recomputed, never lost and never double-counted: an outcome is booked
/// when its SHO1 frame is processed, exactly once, because the in-flight
/// cache entry that triggers replay is erased by that same processing.
///
/// Threading. submit(), the channel handlers, onExited() and service()
/// run on the server's loop thread, which owns all heavy shard state
/// (cache, codec buffers, the child's pidfd, parent-side books). The
/// shard adds its channels and its child's pidfd to the loop's epoll set
/// at every launch and deletes each entry before it closes the fd, so no
/// entry outlives the fd it names, even while a sibling child still holds
/// a dup of it. A child's exit wakes the loop directly and the loop
/// reaps it without blocking; no other thread waits for a running child.
/// drainWithin()/shutdownNow()/finish() run on the drain() caller's
/// thread and communicate with the loop through a small mutex-guarded
/// command block + condition variable. They never touch loop-thread
/// state while the loop runs: a finish() whose shard is not done after
/// its guard asks the loop to kill the child and keeps waiting, and takes
/// the child down itself only once the loop has returned (loopExited).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_NET_SHARDPROCESS_H
#define SMOKESTACK_NET_SHARDPROCESS_H

#include "net/FrameCodec.h"
#include "runtime/WorkerPool.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace smokestack {

struct NetBooks;

/// Callbacks a shard uses to reach back into its owning SocketServer.
struct ShardHooks {
  /// Hands a terminal outcome to the server, which answers it on the
  /// calling thread: the loop thread, or the drain() caller once the loop
  /// has returned.
  std::function<void(const PoolOutcome &)> DeliverOutcome;
  /// Fault probe against the server's net injector (loop thread only).
  std::function<bool(FaultSite)> Probe;
  /// Wakes the server's event loop (thread-safe, async-signal-safe).
  std::function<void()> WakeLoop;
};

/// A shard forked into its own process. The parent end holds: one
/// nonblocking socketpair channel per child worker, the control channel,
/// and the child's pidfd
/// (all registered in the server's epoll by the shard itself), the
/// in-flight request cache that powers replay, and the parent-assembled
/// PoolBooks.
class ChildProcessShard {
public:
  /// \p Opts is the per-shard pool template; the child builds a fresh
  /// WorkerPool from it after fork. The worker count is resolved once,
  /// here (WorkerPool::resolveWorkers), and the child's pool is built with
  /// the resolved count, so both ends agree on one channel per worker.
  /// The parent's in-flight cap (QueueCapacity) is the only admission
  /// point: the child never sheds. Every launch adds channel W to
  /// \p EpollFd under \p ChannelIdBase + W (the control channel is
  /// W = Workers) and the pidfd under \p PidId; the epoll fd must outlive
  /// the shard.
  ChildProcessShard(Module &M, PoolOptions Opts, unsigned Index,
                    unsigned RestartBudget, NetBooks &Net, ShardHooks Hooks,
                    int EpollFd, uint64_t ChannelIdBase, uint64_t PidId);
  ~ChildProcessShard();

  /// Forks the first child. Returns false with \p Err set on failure.
  bool start(std::string *Err);

  /// Routes one request in (loop thread only; never blocks). False =
  /// shed: the caller books WireShed and answers Shed; the shard keeps
  /// its own Submitted/Shed books exact either way.
  bool submit(PoolRequest Req);

  /// Cooperative drain within \p Millis. True when every in-flight
  /// request reached a terminal state without forced cancellation.
  bool drainWithin(unsigned Millis);

  /// Escalation after a failed drain: kill the child. Its in-flight
  /// requests are booked poisoned, keeping the identity exact.
  void shutdownNow();

  /// Final teardown; every outcome has been delivered through
  /// ShardHooks::DeliverOutcome exactly once, and is also in the returned
  /// vector. The shard is dead afterwards.
  std::vector<PoolOutcome> finish();

  /// The parent-assembled books. Exact after finish().
  PoolBooks books() const;

  // ---- Loop-thread service surface -------------------------------------

  /// Events on channel \p Channel (its epoll id minus ChannelIdBase) from
  /// the server's epoll loop.
  void onReadable(unsigned Channel);
  void onWritable(unsigned Channel);

  /// The pidfd became readable: reap the child without blocking and
  /// handle its exit (end the drain, or book the death and re-fork +
  /// replay or retire). A wake with the child still running is ignored.
  void onExited();

  /// Runs pending cross-thread commands: a requested kill, a requested
  /// drain (send the SCT1 command). Called by the loop every wake.
  void service();

  /// Seeded ShardKill fault: SIGKILL the child outright (loop thread).
  void injectKill();

  /// The serving loop has returned and will not service this shard again
  /// (called on the loop thread as it exits). Only then may finish() take
  /// the child down on its own thread.
  void loopExited();

  unsigned index() const { return Idx; }
  /// One channel per child worker; the control channel comes on top.
  unsigned workerChannelCount() const {
    return static_cast<unsigned>(Channels.size() - 1);
  }
  uint32_t restartsUsed() const { return RestartsUsed; }

private:
  enum class State : int {
    Running = 0,
    DrainRequested, ///< drainWithin() called; SCT1 cmds not yet sent.
    DrainSent,      ///< An SCT1 cmd on every channel; awaiting ack and exit.
    Drained,        ///< Ack processed and the exited child reaped.
    Retired,        ///< Dead for good: budget exhausted or killed.
  };

  /// The parent end of one channel to the child.
  struct Channel {
    int Fd = -1;
    bool WantsOut = false; ///< EPOLLOUT armed (the channel was full).
    bool Broken = false;   ///< A send failed: the child is dying.
    uint32_t InFlight = 0; ///< Requests sent here, not yet answered.
    FrameDecoder Decoder;
    std::vector<uint8_t> Outbound;
    size_t OutPos = 0;
  };

  bool launch(std::string *Err);
  /// Reaps the child (waitid flags WEXITED | \p Options) and drops its
  /// pidfd. Returns whether a signal killed it, or nullopt when WNOHANG
  /// found it still running.
  std::optional<bool> reapChild(int Options);
  void closeChannels();
  /// The worker channel with the fewest requests in flight.
  Channel &leastLoaded();
  void processDeath(bool Signaled);
  void sendDrainCmd(unsigned BudgetMillis);
  void sendKill();
  void killNow();
  void appendFrame(Channel &C, const std::vector<uint8_t> &Frame);
  void flushOutbound(Channel &C);
  void flushAll();
  void handleChildFrame(const std::vector<uint8_t> &Payload, Channel &From);
  void retireLocked(std::unique_lock<std::mutex> &Lock);
  void abortInline();

  Module &M;
  PoolOptions Opts;
  unsigned Idx = 0;
  unsigned RestartBudget = 0;
  NetBooks &Net;
  ShardHooks Hooks;
  int EpollFd;
  uint64_t ChannelIdBase, PidId;

  // ---- Loop-thread state ------------------------------------------------
  /// One per child worker, then the control channel (DrainCmd out,
  /// DrainAck in); the count is fixed at construction.
  std::vector<Channel> Channels;
  /// Scratch for the payloads decoded from any channel.
  std::vector<uint8_t> RxPayload;
  int PidFd = -1;
  bool Acked = false; ///< DrainAck processed: the child's exit ends the drain.
  /// In-flight cache: encoded RQS1 frame per outstanding index, the replay
  /// source of truth. An entry lives from submit() to its SHO1 (or its
  /// synthesized poison), so |Cache| is also the parent-side admission cap.
  std::map<uint64_t, std::vector<uint8_t>> Cache;
  uint32_t RestartsUsed = 0;

  // ---- Cross-thread command block (Mtx) ---------------------------------
  mutable std::mutex Mtx;
  std::condition_variable Cv;
  State St = State::Running;
  bool KillPending = false;  ///< shutdownNow()/injectKill asked for SIGKILL.
  bool KillIssued = false;   ///< SIGKILL sent; the next death retires.
  bool DrainWanted = false;  ///< A drain survives deaths: re-forks re-send.
  unsigned DrainBudgetMillis = 0;
  bool CleanAck = false;     ///< The ack's Clean flag.
  bool LoopGone = false;     ///< loopExited(): no loop services the shard.
  PoolBooks Books;           ///< Parent-assembled (loop writes under Mtx).
  std::vector<PoolOutcome> Outcomes;
};

} // namespace smokestack

#endif // SMOKESTACK_NET_SHARDPROCESS_H
