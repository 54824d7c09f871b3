//===- tests/net/ShardProcessTest.cpp - process-shard isolation tests -----===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Multi-process shard isolation (DESIGN.md §15): serving through forked
// shard child processes is bit-identical to serving through in-process
// WorkerPool shards; a SIGKILLed shard child is re-forked and its
// in-flight requests replayed with no observable effect beyond the shard
// lifecycle counters; when the restart budget is exhausted the stranded
// requests are poisoned with exact books instead of being lost; the
// server reaps its own children from the loop thread, leaving no zombie
// and never blocking on a live one; a drain whose loop is alive but late
// leaves the child to that loop instead of racing it; and each child
// worker serves its own channel, so a sequential request wakes one child
// thread, while the parent hands new requests to the least loaded worker
// so that a long run holds back only the requests already on its
// channel.
//
//===----------------------------------------------------------------------===//

#include "net/ShardProcess.h"

#include "common/PoolRuns.h"
#include "common/Threads.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "net/Client.h"
#include "net/SocketServer.h"

#include "gtest/gtest.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

using namespace smokestack;

namespace {

ServerOptions shardServerOptions(unsigned Shards, ShardMode Mode) {
  ServerOptions Opts;
  Opts.Shards = Shards;
  Opts.Mode = Mode;
  Opts.Pool.Workers = 2;
  Opts.Pool.RootSeed = 7;
  Opts.Pool.Function = "driver";
  return Opts;
}

/// Sends indices [0, N) pipelined on one connection and returns the
/// responses keyed by index (completion order is scheduling-dependent).
std::map<uint64_t, WireResponse> serveAll(uint16_t Port, uint64_t N) {
  BlockingClient Client;
  EXPECT_TRUE(Client.connectTo(Port));
  for (uint64_t I = 0; I != N; ++I) {
    WireRequest Req;
    Req.Index = I;
    EXPECT_TRUE(Client.sendRequest(Req));
  }
  std::map<uint64_t, WireResponse> ByIndex;
  for (uint64_t I = 0; I != N; ++I) {
    WireResponse R;
    if (!Client.recvResponse(R, /*TimeoutMillis=*/30000)) {
      ADD_FAILURE() << "response " << I << " never arrived";
      break;
    }
    ByIndex[R.Index] = R;
  }
  return ByIndex;
}

/// The pid named by this process's one open pidfd, and that fd; {-1, -1}
/// unless exactly one fd links to "anon_inode:[pidfd]".
std::pair<int, pid_t> soleOpenPidfd() {
  std::pair<int, pid_t> Found = {-1, -1};
  unsigned Count = 0;
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code EC;
    if (std::filesystem::read_symlink(E.path(), EC).string() !=
        "anon_inode:[pidfd]")
      continue;
    ++Count;
    Found.first = std::stoi(E.path().filename().string());
    std::ifstream Info("/proc/self/fdinfo/" + E.path().filename().string());
    for (std::string Line; std::getline(Info, Line);)
      if (Line.rfind("Pid:", 0) == 0)
        Found.second = static_cast<pid_t>(std::stol(Line.substr(4)));
  }
  return Count == 1 ? Found : std::pair<int, pid_t>{-1, -1};
}

/// True when this process has no child left, running or zombie.
bool noChildrenLeft() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(ShardProcessTest, ProcessModeMatchesThreadModeBitForBit) {
  constexpr uint64_t N = 48;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();

  std::map<uint64_t, WireResponse> PerMode[2];
  DrainReport Reports[2];
  const ShardMode Modes[] = {ShardMode::Thread, ShardMode::Process};
  for (unsigned I = 0; I != 2; ++I) {
    SocketServer Server(M, shardServerOptions(2, Modes[I]));
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    PerMode[I] = serveAll(Server.port(), N);
    Reports[I] = Server.drain();
    ASSERT_TRUE(Reports[I].Clean);
    ASSERT_TRUE(Reports[I].IdentityOk);
  }

  ASSERT_EQ(PerMode[1].size(), PerMode[0].size());
  for (const auto &[Index, RT] : PerMode[0]) {
    const WireResponse &RP = PerMode[1].at(Index);
    EXPECT_EQ(RP.Status, RT.Status) << Index;
    EXPECT_EQ(RP.Trap, RT.Trap) << Index;
    EXPECT_EQ(RP.ReturnValue, RT.ReturnValue) << Index;
    EXPECT_EQ(RP.Steps, RT.Steps) << Index;
    EXPECT_EQ(RP.Attempts, RT.Attempts) << Index;
  }

  // The aggregate books survive the IPC round trip: the parent rebuilds
  // them from per-request deltas, and the rebuilt ledger must equal the
  // in-process merge field for field.
  EXPECT_EQ(Reports[1].Pool.Requests, Reports[0].Pool.Requests);
  EXPECT_EQ(Reports[1].Pool.Completed, Reports[0].Pool.Completed);
  EXPECT_EQ(Reports[1].Pool.Submitted, Reports[0].Pool.Submitted);
  EXPECT_EQ(Reports[1].Pool.Rng.DrawsServed, Reports[0].Pool.Rng.DrawsServed);
  EXPECT_EQ(Reports[1].Pool.Rng.AesRekeys, Reports[0].Pool.Rng.AesRekeys);

  // Sorted outcome streams are bit-identical too.
  ASSERT_EQ(Reports[1].Outcomes.size(), Reports[0].Outcomes.size());
  for (size_t I = 0; I != Reports[0].Outcomes.size(); ++I) {
    EXPECT_EQ(Reports[1].Outcomes[I].Index, Reports[0].Outcomes[I].Index);
    EXPECT_EQ(Reports[1].Outcomes[I].ReturnValue,
              Reports[0].Outcomes[I].ReturnValue);
    EXPECT_EQ(Reports[1].Outcomes[I].Steps, Reports[0].Outcomes[I].Steps);
  }

  // No chaos here: the process pass must not have restarted anything.
  EXPECT_EQ(Reports[1].Net.ShardDeaths, 0u);
  EXPECT_EQ(Reports[1].Net.ShardRestarts, 0u);
}

TEST(ShardProcessTest, ZeroWorkersResolveOnceForParentAndChild) {
  // Workers = 0 means one worker per hardware thread. The parent opens
  // one channel per worker of the child's pool, so both must resolve 0
  // to the same count: a child with fewer workers leaves a channel
  // unserved, one with more waits at drain for a command never sent.
  constexpr uint64_t N = 48;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();
  ServerOptions SO = shardServerOptions(2, ShardMode::Process);
  SO.Pool.Workers = 0;
  NetBooks Net;
  ChildProcessShard Unstarted(M, SO.Pool, 0, 0, Net, {}, -1, 0, 0);
  EXPECT_EQ(Unstarted.workerChannelCount(), WorkerPool::resolveWorkers(0));

  SocketServer Server(M, SO);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Got = serveAll(Server.port(), N);
  DrainReport Rep = Server.drain();
  ASSERT_EQ(Got.size(), N);
  for (const auto &[Index, R] : Got)
    EXPECT_EQ(R.Status, WireStatus::Ok) << Index;
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Pool.Completed, N);
  EXPECT_EQ(Rep.Net.ShardDeaths, 0u);
}

TEST(ShardProcessTest, SigkillShardReplaysInFlightBitForBit) {
  constexpr uint64_t N = 48;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();

  // The reference: the same campaign in thread mode.
  SocketServer RefServer(M, shardServerOptions(1, ShardMode::Thread));
  std::string Err;
  ASSERT_TRUE(RefServer.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Ref = serveAll(RefServer.port(), N);
  DrainReport RefRep = RefServer.drain();
  ASSERT_TRUE(RefRep.Clean);

  // Process mode with a scripted kill: from the 32nd admitted request on,
  // every ShardKill probe fires, so the shard child is SIGKILLed with the
  // pipelined window still in flight — forcing at least one re-fork and
  // replay while requests are outstanding.
  ServerOptions SO = shardServerOptions(1, ShardMode::Process);
  SO.InjectNetFaults = true;
  SO.NetFaultPlan.Seed = 99;
  SO.NetFaultPlan.site(FaultSite::ShardKill) = {0.0, 1, /*FailFromProbe=*/32};
  SocketServer Server(M, SO);
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Got = serveAll(Server.port(), N);
  DrainReport Rep = Server.drain();

  // Every response arrived, served, and bit-identical to thread mode —
  // the kills are invisible outside the lifecycle counters.
  ASSERT_EQ(Got.size(), N);
  for (const auto &[Index, RT] : Ref) {
    const WireResponse &RP = Got.at(Index);
    EXPECT_EQ(RP.Status, RT.Status) << Index;
    EXPECT_EQ(RP.ReturnValue, RT.ReturnValue) << Index;
    EXPECT_EQ(RP.Steps, RT.Steps) << Index;
    EXPECT_EQ(RP.Attempts, RT.Attempts) << Index;
  }

  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Pool.Completed, N);
  EXPECT_EQ(Rep.Pool.Poisoned, 0u);
  EXPECT_GE(Rep.Net.ShardKillFaults, 1u) << "the scripted kill never fired";
  EXPECT_GE(Rep.Net.ShardDeaths, 1u);
  EXPECT_GE(Rep.Net.ShardRestarts, 1u) << "the killed shard never re-forked";
  EXPECT_EQ(Rep.Net.ShardDeaths, Rep.Net.ShardRestarts)
      << "every death within the budget must re-fork";
  EXPECT_GE(Rep.Net.ShardReplays, 1u)
      << "a kill with requests in flight must replay them";
  EXPECT_EQ(Rep.Net.ResponsesDelivered, N);
  EXPECT_EQ(Rep.Net.ResponsesOrphaned, 0u);
}

TEST(ShardProcessTest, ExhaustedRestartBudgetPoisonsInFlightWithExactBooks) {
  constexpr uint64_t N = 32;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();

  // Budget 0: the first kill retires the shard. Everything still cached
  // is poisoned (PoisonedPoolDeath, the same class thread mode books when
  // a pool dies under its backlog) and still answered — the wire
  // accounting identity must hold even with a permanently dead shard.
  ServerOptions SO = shardServerOptions(1, ShardMode::Process);
  SO.ShardRestartBudget = 0;
  SO.InjectNetFaults = true;
  SO.NetFaultPlan.Seed = 99;
  SO.NetFaultPlan.site(FaultSite::ShardKill) = {0.0, 1, /*FailFromProbe=*/16};
  SocketServer Server(M, SO);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Got = serveAll(Server.port(), N);
  DrainReport Rep = Server.drain();

  ASSERT_EQ(Got.size(), N);
  uint64_t Ok = 0, Poisoned = 0, Shed = 0;
  for (const auto &[Index, R] : Got) {
    switch (R.Status) {
    case WireStatus::Ok:
      ++Ok;
      break;
    case WireStatus::Poisoned:
      ++Poisoned;
      break;
    case WireStatus::Shed:
      ++Shed;
      break;
    default:
      ADD_FAILURE() << "unexpected status for " << Index;
    }
  }
  (void)Ok; // how many served before the kill is scheduling-dependent
  EXPECT_GT(Poisoned + Shed, 0u)
      << "a permanently dead shard must poison or shed, not serve, the rest";
  EXPECT_TRUE(Rep.IdentityOk)
      << "Submitted == Completed + Shed + Poisoned across the retirement";
  EXPECT_EQ(Rep.Net.ShardDeaths, 1u);
  EXPECT_EQ(Rep.Net.ShardRestarts, 0u) << "budget 0 never re-forks";
  EXPECT_EQ(Rep.Pool.Poisoned, Poisoned);
  EXPECT_EQ(Rep.Pool.PoisonedPoolDeath, Poisoned);
  EXPECT_EQ(Rep.Pool.Completed + Rep.Pool.Shed + Rep.Pool.Poisoned,
            Rep.Pool.Submitted);
}

TEST(ShardProcessTest, LoopThreadReapsEveryChildWithoutHelperThreads) {
  constexpr uint64_t N = 48;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();

  // Each shard child's pidfd sits in the loop's epoll set and the loop
  // thread reaps the child itself: start() adds the loop thread and no
  // other, and drain() returns only after every child is reaped — after
  // a clean drain, and after the scripted-SIGKILL replay campaign whose
  // children die and re-fork mid-pipeline.
  ServerOptions Killed = shardServerOptions(1, ShardMode::Process);
  Killed.InjectNetFaults = true;
  Killed.NetFaultPlan.Seed = 99;
  Killed.NetFaultPlan.site(FaultSite::ShardKill) = {0.0, 1,
                                                    /*FailFromProbe=*/32};
  const ServerOptions Campaigns[] = {shardServerOptions(2, ShardMode::Process),
                                     Killed};
  for (const ServerOptions &SO : Campaigns) {
    SCOPED_TRACE(SO.InjectNetFaults ? "scripted SIGKILL" : "clean drain");
    unsigned Before = settledThreadCount();
    SocketServer Server(M, SO);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    EXPECT_EQ(settledThreadCount(), Before + 1)
        << "start() must add the loop thread and nothing else";
    EXPECT_EQ(serveAll(Server.port(), N).size(), N);
    DrainReport Rep = Server.drain();
    EXPECT_TRUE(Rep.Clean);
    EXPECT_TRUE(Rep.IdentityOk);
    if (SO.InjectNetFaults) {
      EXPECT_GE(Rep.Net.ShardRestarts, 1u) << "the scripted kill never fired";
    }
    EXPECT_TRUE(noChildrenLeft()) << "drain() left a shard child unreaped";
    EXPECT_EQ(settledThreadCount(), Before);
  }
}

TEST(ShardProcessTest, HeldPidfdDupDoesNotStallTheLoopAfterARestart) {
  constexpr uint64_t Warmup = 8;
  constexpr uint64_t After = 128;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();

  SocketServer Server(M, shardServerOptions(1, ShardMode::Process));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  BlockingClient Client;
  ASSERT_TRUE(Client.connectTo(Server.port()));
  auto ServeRange = [&Client](uint64_t First, uint64_t N) {
    for (uint64_t I = First; I != First + N; ++I) {
      WireRequest Req;
      Req.Index = I;
      EXPECT_TRUE(Client.sendRequest(Req));
    }
    uint64_t Answered = 0;
    WireResponse R;
    while (Answered != N && Client.recvResponse(R, /*TimeoutMillis=*/10000))
      ++Answered;
    return Answered;
  };
  ASSERT_EQ(ServeRange(0, Warmup), Warmup);

  // A sibling shard child forked a moment earlier holds dups of the
  // parent's fds until it closes them; hold one of the pidfd the same way,
  // then kill the child it names. The dup keeps the old pidfd's file
  // alive past the parent's close, so its epoll entry survives unless the
  // shard removes it before closing; that stale, forever-readable entry
  // would report the re-forked live child as exited, and reaping that
  // child would block the loop.
  auto [PidFd, Pid] = soleOpenPidfd();
  ASSERT_GE(PidFd, 0) << "not exactly one anon_inode:[pidfd] fd open";
  ASSERT_GT(Pid, 0) << "no Pid: line in the pidfd's fdinfo";
  int Held = ::dup(PidFd);
  ASSERT_GE(Held, 0);
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);

  EXPECT_EQ(ServeRange(Warmup, After), After)
      << "the loop stopped answering after the shard's re-fork";
  DrainReport Rep = Server.drain();
  ::close(Held);
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.ShardDeaths, 1u);
  EXPECT_EQ(Rep.Net.ShardRestarts, 1u);
  EXPECT_TRUE(noChildrenLeft());
}

/// voluntary_ctxt_switches of every thread of process \p Pid, by tid.
std::map<std::string, long> voluntarySwitchesByThread(pid_t Pid) {
  const std::string Key = "voluntary_ctxt_switches:";
  std::map<std::string, long> ByTid;
  for (const auto &Task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(Pid) + "/task")) {
    std::ifstream Status(Task.path() / "status");
    for (std::string Line; std::getline(Status, Line);)
      if (Line.compare(0, Key.size(), Key) == 0)
        ByTid[Task.path().filename().string()] =
            std::stol(Line.substr(Key.size()));
  }
  return ByTid;
}

TEST(ShardProcessTest, SequentialRequestWakesOneChildThread) {
  // The child worker that owns a channel reads, serves and answers each
  // request on it, so a sequential request wakes one child thread: that
  // worker. A reader thread handing requests to a pool worker would wake
  // two. The busiest thread is the worker; every other child thread must
  // stay asleep.
  constexpr long Warmup = 200, N = 2000;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();
  ServerOptions SO = shardServerOptions(1, ShardMode::Process);
  SO.Pool.Workers = 1;
  SocketServer Server(M, SO);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  auto [PidFd, Pid] = soleOpenPidfd();
  ASSERT_GE(PidFd, 0) << "not exactly one anon_inode:[pidfd] fd open";
  ASSERT_GT(Pid, 0) << "no Pid: line in the pidfd's fdinfo";

  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  auto RoundTrip = [&C](uint64_t Index) {
    WireRequest Req;
    Req.Index = Index;
    WireResponse R;
    return C.sendRequest(Req) && C.recvResponse(R) && R.Index == Index &&
           R.Status == WireStatus::Ok;
  };
  for (long I = 0; I != Warmup; ++I)
    ASSERT_TRUE(RoundTrip(static_cast<uint64_t>(I))) << I;
  std::map<std::string, long> Before = voluntarySwitchesByThread(Pid);
  for (long I = Warmup; I != Warmup + N; ++I)
    ASSERT_TRUE(RoundTrip(static_cast<uint64_t>(I))) << I;
  std::map<std::string, long> After = voluntarySwitchesByThread(Pid);

  ASSERT_EQ(After.size(), Before.size()) << "child threads came or went";
  std::vector<double> PerRequest;
  std::string Readings;
  for (const auto &[Tid, Count] : After) {
    ASSERT_TRUE(Before.count(Tid)) << "child thread " << Tid << " is new";
    PerRequest.push_back(double(Count - Before.at(Tid)) / N);
    Readings += " " + std::to_string(PerRequest.back());
  }
  std::sort(PerRequest.begin(), PerRequest.end());
  PerRequest.pop_back(); // the busiest: the serving worker
  for (double Switches : PerRequest)
    EXPECT_LE(Switches, 0.1)
        << "a second child thread parks and wakes per request; switches "
           "per request by child thread:"
        << Readings;

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, uint64_t(Warmup + N));
  EXPECT_EQ(Rep.Net.ShardDeaths, 0u);
}

TEST(ShardProcessTest, LongRunDoesNotHoldBackNewRequests) {
  // The parent hands each request to the child worker with the fewest
  // requests in flight. While worker 0 spins on a run that will not end,
  // every new request goes to worker 1 and is answered; a pick by index
  // alone would strand about half of them behind the spin.
  constexpr uint64_t N = 32;
  ParseResult P = parseModule(R"(
declare i64 @get_input(ptr)
define i64 @work() {
entry:
  %lim = alloca i64, align 8
  %ctr = alloca i64, align 8
  store i64 0, ptr %lim
  store i64 0, ptr %ctr
  %n = call i64 @get_input(ptr %lim)
  br label %loop
loop:
  %c = load i64, ptr %ctr
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %ctr
  %l = load i64, ptr %lim
  %more = icmp ult i64 %c1, i64 %l
  br i8 %more, label %loop, label %done
done:
  ret i64 13
}
)");
  ASSERT_TRUE(P.ok()) << P.Error;
  installServerSignalDefaults();
  ServerOptions SO;
  SO.Shards = 1;
  SO.Mode = ShardMode::Process;
  SO.Pool.Workers = 2;
  SO.Pool.Function = "work";
  SO.Pool.InterpOpts.Fuel = 1ULL << 62;
  SO.DrainTimeoutMillis = 100;
  SocketServer Server(*P.M, SO);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // Request I runs Iterations[I] loop trips: the input's 8 bytes.
  auto Request = [](uint64_t Index, uint64_t Iterations) {
    WireRequest Req;
    Req.Index = Index;
    std::vector<uint8_t> Record(8);
    std::memcpy(Record.data(), &Iterations, sizeof Iterations);
    Req.Inputs.push_back(std::move(Record));
    return Req;
  };
  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  ASSERT_TRUE(C.sendRequest(Request(0, ~0ULL >> 2)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (uint64_t I = 1; I <= N; ++I) {
    ASSERT_TRUE(C.sendRequest(Request(I, 100)));
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(R, 2000))
        << "request " << I << " waits behind the spinning run";
    EXPECT_EQ(R.Index, I);
    EXPECT_EQ(R.Status, WireStatus::Ok);
  }

  DrainReport Rep = Server.drain();
  EXPECT_FALSE(Rep.Clean) << "the spin is cancelled at the drain";
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Pool.Completed, N);
  EXPECT_EQ(Rep.Pool.Poisoned, 1u);
  EXPECT_EQ(Rep.Net.ShardDeaths, 0u);
}

TEST(ShardProcessTest, LateLoopKillsTheChildAndBooksOneDeath) {
  // finish() waits 5 s for a drained or retired shard. Here the loop that
  // services the shard is alive but asleep for longer than that: finish()
  // must ask that loop to kill the child and keep waiting, never take the
  // child down on its own thread while the loop may still touch the
  // child's pidfd, channel and epoll entries. The loop wakes, kills,
  // reaps and books exactly one death, and every outcome the child
  // served stays booked once.
  constexpr uint64_t N = 8;
  // Channel W of the shard's child has id ChannelIdBase + W; W = 2, past
  // the 2 workers, is the control channel.
  constexpr uint64_t WakeId = 1, PidId = 2, ChannelIdBase = 3;
  Module M("shardproc");
  buildRandModule(M);
  installServerSignalDefaults();

  int Ep = ::epoll_create1(EPOLL_CLOEXEC);
  int Wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(Ep, 0);
  ASSERT_GE(Wake, 0);
  epoll_event WakeEv = {};
  WakeEv.events = EPOLLIN;
  WakeEv.data.u64 = WakeId;
  ASSERT_EQ(::epoll_ctl(Ep, EPOLL_CTL_ADD, Wake, &WakeEv), 0);

  NetBooks Net;
  std::mutex DeliveredMtx;
  uint64_t Delivered = 0;
  ShardHooks Hooks;
  Hooks.DeliverOutcome = [&](const PoolOutcome &) {
    std::lock_guard<std::mutex> Lock(DeliveredMtx);
    ++Delivered;
  };
  Hooks.Probe = [](FaultSite) { return false; };
  Hooks.WakeLoop = [Wake] {
    uint64_t One = 1;
    (void)!::write(Wake, &One, sizeof One);
  };
  ChildProcessShard S(M, shardServerOptions(1, ShardMode::Process).Pool, 0,
                      /*RestartBudget=*/2, Net, Hooks, Ep, ChannelIdBase,
                      PidId);
  ASSERT_EQ(S.workerChannelCount(), 2u) << "one channel per child worker";
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  // The loop: serve N requests, then sleep past finish()'s guard, then
  // service the shard as a loop does until told to stop.
  std::atomic<bool> Asleep{false}, Stop{false};
  std::thread Loop([&] {
    for (uint64_t I = 0; I != N; ++I)
      EXPECT_TRUE(S.submit({I, {}}));
    bool Slept = false;
    while (!Stop.load()) {
      bool AllServed;
      {
        std::lock_guard<std::mutex> Lock(DeliveredMtx);
        AllServed = Delivered == N;
      }
      if (AllServed && !Slept) {
        Asleep = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(6500));
        Slept = true;
      }
      S.service();
      epoll_event Events[8];
      int K = ::epoll_wait(Ep, Events, 8, 50);
      for (int I = 0; I < K; ++I) {
        uint64_t Id = Events[I].data.u64;
        if (Id == WakeId) {
          uint64_t Count;
          (void)!::read(Wake, &Count, sizeof Count);
        } else if (Id == PidId) {
          S.onExited();
        } else if (Id >= ChannelIdBase) {
          unsigned Ch = static_cast<unsigned>(Id - ChannelIdBase);
          if (Events[I].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
            S.onReadable(Ch);
          if (Events[I].events & EPOLLOUT)
            S.onWritable(Ch);
        }
      }
    }
  });
  while (!Asleep.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<PoolOutcome> Outcomes = S.finish();
  Stop = true;
  Loop.join();

  EXPECT_EQ(Net.ShardDeaths, 1u);
  EXPECT_EQ(Net.ShardDeathsBySignal, 1u);
  EXPECT_EQ(Net.ShardRestarts, 0u);
  EXPECT_EQ(Outcomes.size(), N);
  EXPECT_EQ(Delivered, N);
  PoolBooks B = S.books();
  EXPECT_EQ(B.Submitted, N);
  EXPECT_EQ(B.Completed, N);
  EXPECT_EQ(B.Poisoned, 0u);
  EXPECT_TRUE(noChildrenLeft()) << "the killed child was never reaped";
  ::close(Wake);
  ::close(Ep);
}

} // namespace
