//===- tests/net/SocketServerTest.cpp - socket front-end tests ------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving front-end's contract over real loopback sockets: wire
// outcomes are bit-identical to the in-process WorkerPool at any shard
// count, crashes and deaths included; every malformed byte stream is an
// accounted protocol error that kills one connection and nothing else;
// deadlines reject at admission; in thread mode a flood pauses reads and
// sheds nothing, and in process mode the parent's in-flight cap sheds
// with exact books; a hung request is poisoned by the drain-timeout
// escalation; the wire accounting identity holds at the end of every
// scenario, friendly or hostile; and an entry point no request can call
// is refused before anything starts. In thread mode the worker that owns
// a connection reads, serves and answers its requests: a sequential
// request wakes no second thread, a client hanging up keeps the books
// exact, and the request's own fault plan never reaches the socket layer.
//
//===----------------------------------------------------------------------===//

#include "net/SocketServer.h"

#include "common/PoolRuns.h"
#include "ir/IRBuilder.h"
#include "net/Client.h"
#include "net/ShardRouter.h"

#include "support/Fnv.h"
#include "support/SplitMix64.h"
#include "support/Statistics.h"

#include "gtest/gtest.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

using namespace smokestack;

namespace {

void sleepMillis(unsigned Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

ServerOptions randServerOptions(unsigned Shards) {
  ServerOptions Opts;
  Opts.Shards = Shards;
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
    if (!Client.recvResponse(R)) {
      ADD_FAILURE() << "response " << I << " never arrived";
      break;
    }
    ByIndex[R.Index] = R;
  }
  return ByIndex;
}

/// Connects \p Conns clients one after another (so connection K is K-th
/// in accept order), pipelines index I on connection I % Conns, and
/// returns the responses keyed by index.
std::map<uint64_t, WireResponse> serveSpread(uint16_t Port, uint64_t N,
                                             unsigned Conns) {
  std::vector<BlockingClient> Clients(Conns);
  for (BlockingClient &C : Clients)
    EXPECT_TRUE(C.connectTo(Port));
  for (uint64_t I = 0; I != N; ++I) {
    WireRequest Req;
    Req.Index = I;
    EXPECT_TRUE(Clients[I % Conns].sendRequest(Req));
  }
  std::map<uint64_t, WireResponse> ByIndex;
  for (uint64_t I = 0; I != N; ++I) {
    WireResponse R;
    if (!Clients[I % Conns].recvResponse(R)) {
      ADD_FAILURE() << "response " << I << " never arrived";
      break;
    }
    ByIndex[R.Index] = R;
  }
  return ByIndex;
}

TEST(SocketServerTest, RoundTripMatchesInProcessPool) {
  constexpr uint64_t N = 32;
  Module M("net");
  buildRandModule(M);

  // The in-process reference: same module, options, and request stream.
  PoolOptions Ref;
  Ref.Workers = 2;
  Ref.RootSeed = 7;
  Ref.Function = "driver";
  WorkerPool Pool(M, Ref);
  Pool.start();
  for (uint64_t I = 0; I != N; ++I)
    Pool.submit({I, {}});
  std::vector<PoolOutcome> Expected = Pool.finish();
  ASSERT_EQ(Expected.size(), N);

  SocketServer Server(M, randServerOptions(1));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Got = serveAll(Server.port(), N);

  ASSERT_EQ(Got.size(), N);
  for (const PoolOutcome &O : Expected) {
    const WireResponse &R = Got.at(O.Index);
    EXPECT_EQ(R.Status, WireStatus::Ok) << O.Index;
    EXPECT_EQ(R.Trap, TrapKind::None) << O.Index;
    EXPECT_EQ(R.ReturnValue, O.ReturnValue) << O.Index;
    EXPECT_EQ(R.Steps, O.Steps) << O.Index;
    EXPECT_EQ(R.Attempts, O.Attempts) << O.Index;
  }

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.FramesDecoded, N);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, N);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, N);
  EXPECT_EQ(Rep.Net.ResponsesOrphaned, 0u);
  EXPECT_EQ(Rep.Net.ProtocolErrors, 0u);
  EXPECT_EQ(Rep.Pool.Completed, N);

  // The drain report's sorted outcomes match the reference bit for bit.
  ASSERT_EQ(Rep.Outcomes.size(), N);
  for (uint64_t I = 0; I != N; ++I) {
    EXPECT_EQ(Rep.Outcomes[I].Index, Expected[I].Index);
    EXPECT_EQ(Rep.Outcomes[I].ReturnValue, Expected[I].ReturnValue);
    EXPECT_EQ(Rep.Outcomes[I].Steps, Expected[I].Steps);
  }
}

TEST(SocketServerTest, ShardCountIsInvisibleToResults) {
  constexpr uint64_t N = 48;
  Module M("net");
  buildRandModule(M);

  std::map<uint64_t, WireResponse> PerShardCount[3];
  DrainReport Reports[3];
  const unsigned ShardCounts[] = {1, 2, 4};
  for (unsigned S = 0; S != 3; ++S) {
    SocketServer Server(M, randServerOptions(ShardCounts[S]));
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    PerShardCount[S] = serveSpread(Server.port(), N, 4);
    Reports[S] = Server.drain();
    ASSERT_TRUE(Reports[S].Clean);
    ASSERT_TRUE(Reports[S].IdentityOk);
    ASSERT_EQ(Reports[S].PerShard.size(), ShardCounts[S]);
  }

  for (unsigned S = 1; S != 3; ++S) {
    ASSERT_EQ(PerShardCount[S].size(), PerShardCount[0].size());
    for (const auto &[Index, R0] : PerShardCount[0]) {
      const WireResponse &RS = PerShardCount[S].at(Index);
      EXPECT_EQ(RS.Status, R0.Status) << Index;
      EXPECT_EQ(RS.ReturnValue, R0.ReturnValue) << Index;
      EXPECT_EQ(RS.Steps, R0.Steps) << Index;
      EXPECT_EQ(RS.Attempts, R0.Attempts) << Index;
    }
    // Aggregate books are shard-invariant too (the merge identity).
    EXPECT_EQ(Reports[S].Pool.Requests, Reports[0].Pool.Requests);
    EXPECT_EQ(Reports[S].Pool.Completed, Reports[0].Pool.Completed);
    EXPECT_EQ(Reports[S].Pool.Rng.DrawsServed, Reports[0].Pool.Rng.DrawsServed);
  }

  // Sanity: at 4 shards the four connections landed on four shards
  // (connection K is served by loop K, a worker of shard K % 4).
  uint64_t NonEmpty = 0;
  for (const PoolBooks &B : Reports[2].PerShard)
    NonEmpty += B.Requests != 0;
  EXPECT_EQ(NonEmpty, 4u) << "connections did not spread across shards";
}

TEST(SocketServerTest, ShardRouterIsDeterministic) {
  for (uint64_t Index = 0; Index != 1000; ++Index) {
    unsigned A = shardForRequest(7, Index, 4);
    unsigned B = shardForRequest(7, Index, 4);
    EXPECT_EQ(A, B);
    EXPECT_LT(A, 4u);
    EXPECT_EQ(shardForRequest(7, Index, 1), 0u);
  }
}

TEST(SocketServerTest, MalformedStreamsAreAccountedPerClass) {
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(1));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  auto expectErrorNotice = [](BlockingClient &C) {
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(R));
    EXPECT_EQ(R.Status, WireStatus::ProtocolError);
    // The server then closes: wait for the FIN.
    while (!C.peerClosed())
      if (!C.recvResponse(R))
        break;
  };

  { // Zero-length prefix.
    BlockingClient C;
    ASSERT_TRUE(C.connectTo(Server.port()));
    uint8_t Zero[4] = {0, 0, 0, 0};
    ASSERT_TRUE(C.sendBytes(Zero, sizeof Zero));
    expectErrorNotice(C);
  }
  { // Oversize prefix.
    BlockingClient C;
    ASSERT_TRUE(C.connectTo(Server.port()));
    uint8_t Huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_TRUE(C.sendBytes(Huge, sizeof Huge));
    expectErrorNotice(C);
  }
  { // Garbage payload: well-framed, fails the schema.
    BlockingClient C;
    ASSERT_TRUE(C.connectTo(Server.port()));
    uint8_t Frame[12] = {8, 0, 0, 0, 'g', 'a', 'r', 'b', 'a', 'g', 'e', '!'};
    ASSERT_TRUE(C.sendBytes(Frame, sizeof Frame));
    expectErrorNotice(C);
  }
  { // Truncated: close mid-frame.
    BlockingClient C;
    ASSERT_TRUE(C.connectTo(Server.port()));
    uint8_t Partial[6] = {100, 0, 0, 0, 1, 2};
    ASSERT_TRUE(C.sendBytes(Partial, sizeof Partial));
    C.closeConn();
  }
  { // A valid request on a fresh connection still works afterwards: a
    // hostile connection must not poison its neighbours.
    BlockingClient C;
    ASSERT_TRUE(C.connectTo(Server.port()));
    WireRequest Req;
    Req.Index = 99;
    ASSERT_TRUE(C.sendRequest(Req));
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(R));
    EXPECT_EQ(R.Index, 99u);
    EXPECT_EQ(R.Status, WireStatus::Ok);
  }

  // The truncated close races the drain: wait for the books to settle.
  sleepMillis(100);
  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.FrameZeroLength, 1u);
  EXPECT_EQ(Rep.Net.FrameOversize, 1u);
  EXPECT_EQ(Rep.Net.BadPayload, 1u);
  EXPECT_EQ(Rep.Net.FrameTruncated, 1u);
  EXPECT_EQ(Rep.Net.ProtocolErrors, 4u);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, 1u);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, 1u);
}

TEST(SocketServerTest, DuplicateInFlightIndexIsAProtocolError) {
  // Two frames with the same index pipelined in one write: the first is
  // admitted, the second is caught while the first is still in flight
  // (both decode in the same read pump, before any completion can drain).
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(1));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  WireRequest Req;
  Req.Index = 5;
  std::vector<uint8_t> F = encodeRequestFrame(Req);
  std::vector<uint8_t> Both = F;
  Both.insert(Both.end(), F.begin(), F.end());
  ASSERT_TRUE(C.sendBytes(Both.data(), Both.size()));

  // Expect exactly two responses: the protocol-error notice and the first
  // request's real answer (order depends on completion timing).
  bool SawError = false, SawAnswer = false;
  for (unsigned I = 0; I != 2; ++I) {
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(R));
    if (R.Status == WireStatus::ProtocolError)
      SawError = true;
    else if (R.Index == 5 && R.Status == WireStatus::Ok)
      SawAnswer = true;
  }
  EXPECT_TRUE(SawError);
  EXPECT_TRUE(SawAnswer);

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.BadPayload, 1u);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, 1u);
}

TEST(SocketServerTest, ExpiredDeadlineRejectsAtAdmission) {
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(1));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // The deadline clock starts at the frame's first byte: send half the
  // frame, stall past the deadline, then complete it.
  WireRequest Req;
  Req.Index = 1;
  Req.DeadlineMillis = 50;
  std::vector<uint8_t> F = encodeRequestFrame(Req);
  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  size_t Half = F.size() / 2;
  ASSERT_TRUE(C.sendBytes(F.data(), Half));
  sleepMillis(200);
  ASSERT_TRUE(C.sendBytes(F.data() + Half, F.size() - Half));

  WireResponse R;
  ASSERT_TRUE(C.recvResponse(R));
  EXPECT_EQ(R.Index, 1u);
  EXPECT_EQ(R.Status, WireStatus::DeadlineExpired);

  // A generous deadline on the same connection is served normally.
  Req.Index = 2;
  Req.DeadlineMillis = 60000;
  ASSERT_TRUE(C.sendRequest(Req));
  ASSERT_TRUE(C.recvResponse(R));
  EXPECT_EQ(R.Index, 2u);
  EXPECT_EQ(R.Status, WireStatus::Ok);
  EXPECT_EQ(R.Flags & RespFlagDeadlineMissed, 0u);

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.DeadlineRejected, 1u);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, 1u);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, 2u);
  EXPECT_EQ(Rep.Pool.Submitted, 1u) << "expired request must not hit a shard";
}

TEST(SocketServerTest, OverloadShedsWithExactBooks) {
  // Process mode: one worker, a one-slot in-flight cap per shard, and a
  // slow request. Flooding the server must produce Shed responses, not
  // unbounded buffering — and the wire books must balance exactly even
  // though which requests shed is racy.
  constexpr uint64_t N = 32;
  Module M("net");
  buildSpinModule(M, 200'000);
  ServerOptions Opts;
  Opts.Shards = 1;
  Opts.Mode = ShardMode::Process;
  Opts.Pool.Workers = 1;
  Opts.Pool.QueueCapacity = 1;
  Opts.Pool.Function = "spin";
  SocketServer Server(M, Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  for (uint64_t I = 0; I != N; ++I) {
    WireRequest Req;
    Req.Index = I;
    ASSERT_TRUE(C.sendRequest(Req));
  }
  uint64_t Served = 0, Shed = 0;
  for (uint64_t I = 0; I != N; ++I) {
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(R)) << "response " << I;
    if (R.Status == WireStatus::Shed)
      ++Shed;
    else if (R.Status == WireStatus::Ok) {
      EXPECT_EQ(R.ReturnValue, 13u);
      ++Served;
    }
  }
  EXPECT_EQ(Served + Shed, N);
  EXPECT_GT(Shed, 0u) << "the flood never passed a one-request cap";
  EXPECT_GT(Served, 0u);

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.WireShed, Shed);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, Served);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, N);
  EXPECT_EQ(Rep.Pool.ShedQueueFull, Shed);
}

TEST(SocketServerTest, FloodPausesReadsAndShedsNothingInThreadMode) {
  // Thread mode: one serving thread, a one-slot QueueCapacity (which
  // thread mode does not use), a 64-byte response backlog cap that every
  // pipelined batch passes, and a client that reads nothing for a while.
  // The owning thread pauses its reads until the backlog flushes; it never
  // sheds, so every request is served and the books balance exactly.
  constexpr uint64_t N = 2000;
  Module M("net");
  buildRandModule(M);
  ServerOptions Opts = randServerOptions(1);
  Opts.Pool.Workers = 1;
  Opts.Pool.QueueCapacity = 1;
  Opts.MaxConnBacklogBytes = 64;
  SocketServer Server(M, Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  std::thread Sender([&C] {
    for (uint64_t I = 0; I != N; ++I) {
      WireRequest Req;
      Req.Index = I;
      if (!C.sendRequest(Req)) {
        ADD_FAILURE() << "send " << I << " failed";
        return;
      }
    }
  });
  sleepMillis(100);
  uint64_t Ok = 0;
  for (uint64_t I = 0; I != N; ++I) {
    WireResponse R;
    if (!C.recvResponse(R)) {
      ADD_FAILURE() << "response " << I << " never arrived";
      break;
    }
    EXPECT_EQ(R.Index, I) << "one thread answers a connection in order";
    Ok += R.Status == WireStatus::Ok;
  }
  Sender.join();
  EXPECT_EQ(Ok, N);

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.WireShed, 0u);
  EXPECT_EQ(Rep.Pool.Shed, 0u);
  EXPECT_EQ(Rep.Pool.Completed, N);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, N);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, N);
}

TEST(SocketServerTest, CrashesAndDeathsMatchTheInProcessPool) {
  // Thread mode with a WorkerCrash/WorkerDeath plan: each serving thread
  // retries in place and repairs its own worker. Outcomes and books must
  // equal the queue-driven in-process pool's for the same seed.
  constexpr uint64_t N = 400;
  Module M("net");
  buildRandModule(M);
  ServerOptions Opts = randServerOptions(2);
  Opts.Pool.InjectFaults = true;
  Opts.Pool.FaultTemplate.site(FaultSite::WorkerCrash) = {0.05, 1, 0};
  Opts.Pool.FaultTemplate.site(FaultSite::WorkerDeath) = {0.02, 1, 0};
  Opts.Pool.Supervision.AttemptsMin = 2;
  Opts.Pool.Supervision.AttemptsMax = 4;
  Opts.Pool.PlanForRequest = [](uint64_t Index, FaultPlan &Plan) {
    if (Index % 97 == 13) // crashes on every attempt: quarantined
      Plan.site(FaultSite::WorkerCrash) = {0.0, 1, 1};
  };

  WorkerPool Pool(M, Opts.Pool);
  Pool.start();
  for (uint64_t I = 0; I != N; ++I)
    Pool.submit({I, {}});
  std::vector<PoolOutcome> Expected = Pool.finish();
  const PoolBooks &Want = Pool.books();
  ASSERT_EQ(Expected.size(), N);

  SocketServer Server(M, Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Got = serveSpread(Server.port(), N, 4);
  ASSERT_EQ(Got.size(), N);
  for (const PoolOutcome &O : Expected) {
    const WireResponse &R = Got.at(O.Index);
    EXPECT_EQ(R.Status, O.Poisoned ? WireStatus::Poisoned : WireStatus::Ok)
        << O.Index;
    EXPECT_EQ(R.ReturnValue, O.ReturnValue) << O.Index;
    EXPECT_EQ(R.Attempts, O.Attempts) << O.Index;
  }

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  ASSERT_EQ(Rep.Outcomes.size(), N);
  for (uint64_t I = 0; I != N; ++I) {
    const PoolOutcome &A = Rep.Outcomes[I], &B = Expected[I];
    EXPECT_EQ(A.Index, B.Index);
    EXPECT_EQ(A.Trap, B.Trap) << I;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << I;
    EXPECT_EQ(A.Steps, B.Steps) << I;
    EXPECT_EQ(A.Attempts, B.Attempts) << I;
    EXPECT_EQ(A.Poisoned, B.Poisoned) << I;
  }
  const PoolBooks &Have = Rep.Pool;
  EXPECT_GT(Want.CrashesContained, 0u) << "the plan never crashed a worker";
  EXPECT_GT(Want.WorkerDeaths, 0u) << "the plan never killed a worker";
  EXPECT_GT(Want.Poisoned, 0u);
  EXPECT_EQ(Have.Submitted, Want.Submitted);
  EXPECT_EQ(Have.Accepted, Want.Accepted);
  EXPECT_EQ(Have.Completed, Want.Completed);
  EXPECT_EQ(Have.Shed, Want.Shed);
  EXPECT_EQ(Have.Poisoned, Want.Poisoned);
  EXPECT_EQ(Have.PoisonedPoolDeath, Want.PoisonedPoolDeath);
  EXPECT_EQ(Have.PoisonedIndices, Want.PoisonedIndices);
  EXPECT_EQ(Have.Requests, Want.Requests);
  EXPECT_EQ(Have.RequestTraps, Want.RequestTraps);
  EXPECT_EQ(Have.RequestRecoveries, Want.RequestRecoveries);
  EXPECT_EQ(Have.Rng.DrawsServed, Want.Rng.DrawsServed);
  EXPECT_EQ(Have.CrashesContained, Want.CrashesContained);
  EXPECT_EQ(Have.WorkerDeaths, Want.WorkerDeaths);
  EXPECT_EQ(Have.WorkerRestarts, Want.WorkerRestarts);
  EXPECT_EQ(Have.Retries, Want.Retries);
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    EXPECT_EQ(Have.InjectedProbes[S], Want.InjectedProbes[S]) << S;
    EXPECT_EQ(Have.InjectedEvents[S], Want.InjectedEvents[S]) << S;
  }
}

TEST(SocketServerTest, DrainTimeoutPoisonsHungRequests) {
  // Requests that never finish on their own: drain()'s budget expires,
  // the escalation cancels them, and the books say so — Clean = false,
  // each poisoned once, identity still exact. In process mode the child
  // runs the budget itself and must drain, not die, whether an idle
  // worker reaches its drain command while another spins (2 workers, 1
  // hung), or no worker is free to (1 worker, or 2 workers both hung).
  Module M("net");
  buildSpinModule(M, ~0ULL >> 8);
  installServerSignalDefaults();
  struct Case {
    ShardMode Mode;
    unsigned Workers;
    unsigned Hung;
    const char *Name;
  };
  const Case Cases[] = {
      {ShardMode::Thread, 1, 1, "thread mode, 1 worker"},
      {ShardMode::Process, 2, 1, "process mode, 2 workers, 1 hung"},
      {ShardMode::Process, 1, 1, "process mode, 1 worker, 1 hung"},
      {ShardMode::Process, 2, 2, "process mode, 2 workers, both hung"},
  };
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Name);
    ServerOptions Opts;
    Opts.Shards = 1;
    Opts.Mode = K.Mode;
    Opts.Pool.Workers = K.Workers;
    Opts.Pool.Function = "spin";
    // Effectively infinite fuel: cancellation must be the only way out.
    Opts.Pool.InterpOpts.Fuel = 1ULL << 62;
    Opts.DrainTimeoutMillis = 100;
    SocketServer Server(M, Opts);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;

    // Each hung request goes to the least loaded child worker, so with
    // K.Hung == K.Workers every child worker spins.
    BlockingClient C;
    ASSERT_TRUE(C.connectTo(Server.port()));
    for (uint64_t I = 0; I != K.Hung; ++I) {
      WireRequest Req;
      Req.Index = I;
      ASSERT_TRUE(C.sendRequest(Req));
    }
    sleepMillis(100); // let them be admitted and start spinning

    DrainReport Rep = Server.drain();
    EXPECT_FALSE(Rep.Clean);
    EXPECT_TRUE(Rep.IdentityOk);
    EXPECT_EQ(Rep.Pool.Poisoned, K.Hung);
    EXPECT_EQ(Rep.Pool.PoisonedPoolDeath, K.Hung);
    EXPECT_EQ(Rep.Net.ShardDeaths, 0u) << "the child must drain, not die";
    ASSERT_EQ(Rep.Outcomes.size(), K.Hung);
    for (const PoolOutcome &O : Rep.Outcomes) {
      EXPECT_TRUE(O.Poisoned);
      EXPECT_GE(O.Attempts, 1u) << "a run that was cancelled, not synthesized";
    }

    // The poisoned verdicts are still delivered to the waiting client
    // during the flush phase (a drain is graceful to readers even when the
    // work had to be shot).
    uint64_t Received = 0;
    WireResponse R;
    while (Received != K.Hung && C.recvResponse(R, 2000)) {
      EXPECT_EQ(R.Status, WireStatus::Poisoned);
      ++Received;
    }
    EXPECT_EQ(Rep.Net.ResponsesDelivered, Received);
    EXPECT_EQ(Rep.Net.ResponsesDelivered + Rep.Net.ResponsesOrphaned,
              uint64_t(K.Hung));
  }
}

TEST(SocketServerTest, ClientResetOrphansItsResponses) {
  // The client dies (RST) while its request is being served: the
  // completion finds no connection and is booked Orphaned, keeping
  // Delivered + Orphaned == Admitted exact.
  Module M("net");
  buildSpinModule(M, 3'000'000);
  ServerOptions Opts;
  Opts.Shards = 1;
  Opts.Pool.Workers = 1;
  Opts.Pool.Function = "spin";
  SocketServer Server(M, Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  WireRequest Req;
  Req.Index = 0;
  ASSERT_TRUE(C.sendRequest(Req));
  sleepMillis(30); // admitted, still spinning
  C.resetConn();

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.RequestsAdmitted, 1u);
  EXPECT_EQ(Rep.Net.ResponsesDelivered + Rep.Net.ResponsesOrphaned, 1u);
  EXPECT_EQ(Rep.Pool.Completed, 1u) << "the work itself still completes";
}

/// voluntary_ctxt_switches summed over every thread of this process but
/// the calling one.
long voluntarySwitchesOfOtherThreads() {
  const std::string Self = std::to_string(::gettid());
  const std::string Key = "voluntary_ctxt_switches:";
  long Sum = 0;
  for (const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    if (Task.path().filename() == Self)
      continue;
    std::ifstream Status(Task.path() / "status");
    for (std::string Line; std::getline(Status, Line);)
      if (Line.compare(0, Key.size(), Key) == 0)
        Sum += std::stol(Line.substr(Key.size()));
  }
  return Sum;
}

TEST(SocketServerTest, SequentialRequestWakesNoOtherThread) {
  // The thread that owns the connection reads, serves and answers each
  // request, so a sequential request costs the server one park in all: its
  // owner's epoll_wait. A hand-off to another thread would add a second.
  constexpr long N = 200;
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(1));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  BlockingClient C;
  ASSERT_TRUE(C.connectTo(Server.port()));
  auto RoundTrip = [&C](uint64_t Index) {
    WireRequest Req;
    Req.Index = Index;
    WireResponse R;
    return C.sendRequest(Req) && C.recvResponse(R) && R.Index == Index &&
           R.Status == WireStatus::Ok;
  };
  ASSERT_TRUE(RoundTrip(0)); // the accept is behind us
  long Before = voluntarySwitchesOfOtherThreads();
  for (long I = 1; I <= N; ++I)
    ASSERT_TRUE(RoundTrip(static_cast<uint64_t>(I))) << I;
  long After = voluntarySwitchesOfOtherThreads();
  EXPECT_LE(double(After - Before) / N, 1.2)
      << (After - Before) << " server context switches for " << N
      << " sequential requests";

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, uint64_t(N) + 1);
}

TEST(SocketServerTest, CloseRacingAWorkerSendKeepsExactBooks) {
  // Clients hang up while responses are still being written, so the loop
  // closes connections under workers that are inside send(). Every
  // response still ends in exactly one class, and one the client read was
  // Delivered: send() had accepted its last byte.
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(2));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  SplitMix64 Rng(24);
  uint64_t NextIndex = 0, Sent = 0, Read = 0;
  for (unsigned Round = 0; Round != 24; ++Round) {
    constexpr unsigned Conns = 4;
    BlockingClient Clients[Conns];
    uint64_t Keep[Conns];
    for (unsigned K = 0; K != Conns; ++K) {
      ASSERT_TRUE(Clients[K].connectTo(Server.port()));
      uint64_t Batch = 8 + Rng.nextBounded(57);
      std::vector<uint8_t> Bytes;
      for (uint64_t I = 0; I != Batch; ++I) {
        WireRequest Req;
        Req.Index = NextIndex++;
        std::vector<uint8_t> F = encodeRequestFrame(Req);
        Bytes.insert(Bytes.end(), F.begin(), F.end());
      }
      ASSERT_TRUE(Clients[K].sendBytes(Bytes.data(), Bytes.size()));
      Sent += Batch;
      Keep[K] = Rng.nextBounded(Batch + 1);
    }
    for (unsigned K = 0; K != Conns; ++K) {
      for (uint64_t I = 0; I != Keep[K]; ++I) {
        WireResponse R;
        ASSERT_TRUE(Clients[K].recvResponse(R)) << "round " << Round;
      }
      Read += Keep[K];
      if (Rng.next() & 1)
        Clients[K].resetConn();
      else
        Clients[K].closeConn();
    }
  }

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.ResponsesDelivered + Rep.Net.ResponsesOrphaned,
            Rep.Net.RequestsAdmitted + Rep.Net.WireShed +
                Rep.Net.DeadlineRejected);
  EXPECT_GE(Rep.Net.ResponsesDelivered, Read);
  EXPECT_LE(Rep.Net.FramesDecoded, Sent);
  EXPECT_EQ(Rep.Net.ProtocolErrors, 0u);
}

WireStatus statusOf(const PoolOutcome &O) {
  return O.Poisoned                 ? WireStatus::Poisoned
         : O.Trap != TrapKind::None ? WireStatus::Trapped
                                    : WireStatus::Ok;
}

TEST(SocketServerTest, RequestFaultPlanNeverReachesTheSocketLayer) {
  // A worker writes its response while its request's FaultScope is still
  // installed. A plan that fails every socket-layer probe must inject
  // nothing there: with InjectNetFaults off, the socket sites are off.
  constexpr uint64_t N = 64;
  Module M("net");
  buildRandModule(M);
  ServerOptions Opts = randServerOptions(1);
  Opts.Pool.InjectFaults = true;
  for (FaultSite S :
       {FaultSite::ClientStall, FaultSite::NetPartialIo, FaultSite::ConnReset})
    Opts.Pool.FaultTemplate.site(S).Probability = 1.0;

  WorkerPool Pool(M, Opts.Pool);
  Pool.start();
  for (uint64_t I = 0; I != N; ++I)
    Pool.submit({I, {}});
  Fnv64 InProcess;
  for (const PoolOutcome &O : Pool.finish())
    for (uint64_t V : {O.Index, uint64_t(statusOf(O)), uint64_t(O.Trap),
                       O.ReturnValue, O.Steps, uint64_t(O.Attempts)})
      InProcess.mix(V);

  SocketServer Server(M, Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::map<uint64_t, WireResponse> Got = serveAll(Server.port(), N);
  ASSERT_EQ(Got.size(), N);
  Fnv64 Wire;
  for (const auto &[Index, R] : Got)
    for (uint64_t V : {Index, uint64_t(R.Status), uint64_t(R.Trap),
                       R.ReturnValue, R.Steps, uint64_t(R.Attempts)})
      Wire.mix(V);
  EXPECT_EQ(Wire.value(), InProcess.value());

  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.IdentityOk);
  EXPECT_EQ(Rep.Net.StallFaults, 0u);
  EXPECT_EQ(Rep.Net.PartialIoFaults, 0u);
  EXPECT_EQ(Rep.Net.ResetFaults, 0u);
  EXPECT_EQ(Rep.Net.ResponsesDelivered, N);
}

TEST(SocketServerTest, RequestStopIsObservable) {
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(1));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  EXPECT_FALSE(Server.stopRequested());
  Server.requestStop();
  EXPECT_TRUE(Server.stopRequested());
  DrainReport Rep = Server.drain();
  EXPECT_TRUE(Rep.Clean);
  EXPECT_TRUE(Rep.IdentityOk);
}

TEST(SocketServerTest, DrainIsIdempotent) {
  Module M("net");
  buildRandModule(M);
  SocketServer Server(M, randServerOptions(2));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  serveAll(Server.port(), 8);
  DrainReport A = Server.drain();
  DrainReport B = Server.drain();
  EXPECT_EQ(A.Net.FramesDecoded, B.Net.FramesDecoded);
  EXPECT_EQ(A.Outcomes.size(), B.Outcomes.size());
  EXPECT_TRUE(B.IdentityOk);
}

/// Every request calls Pool.Function with no arguments, so start() must
/// refuse one that is missing, only declared, or takes arguments — and
/// refuse it before any shard starts: no pool worker, no shard child, no
/// bound port.
void expectBadEntryPointsRefused(ShardMode Mode) {
  Module M("net");
  buildRandModule(M); // driver() plus the smokestack.rand declaration
  IRBuilder B(M);
  Function *Leaf = M.createFunction("leaf", B.i64(), {B.i64()});
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.ret(B.constI64(3));

  const struct {
    const char *Function;
    const char *Err;
  } Cases[] = {
      {"nosuch", "entry point: no function definition named 'nosuch'"},
      {"smokestack.rand",
       "entry point: no function definition named 'smokestack.rand'"},
      {"leaf", "entry point: 'leaf' takes 1 argument(s), 0 given"},
  };
  const Statistic *Launched = findStatistic("pool.workers-launched");
  ASSERT_NE(Launched, nullptr);
  for (const auto &C : Cases) {
    SCOPED_TRACE(C.Function);
    ServerOptions Opts = randServerOptions(2);
    Opts.Mode = Mode;
    Opts.Pool.Function = C.Function;
    uint64_t WorkersBefore = Launched->value();
    SocketServer Server(M, Opts);
    std::string Err;
    EXPECT_FALSE(Server.start(&Err));
    EXPECT_EQ(Err, C.Err);
    EXPECT_EQ(Server.port(), 0u) << "nothing may be bound";
    EXPECT_EQ(Launched->value(), WorkersBefore) << "no shard pool may start";
    errno = 0;
    EXPECT_TRUE(::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD)
        << "no shard child may be forked";
    DrainReport Rep = Server.drain(); // a no-op on a server never started
    EXPECT_TRUE(Rep.Outcomes.empty());
  }
}

TEST(SocketServerTest, BadEntryPointFailsStartInThreadMode) {
  expectBadEntryPointsRefused(ShardMode::Thread);
}

TEST(SocketServerTest, BadEntryPointFailsStartInProcessMode) {
  expectBadEntryPointsRefused(ShardMode::Process);
}

} // namespace
