//===- perfbench/Bench.h - Shared pieces of the benchmark --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's translation units: the served
/// modules and their pool/server options (Scenario.cpp), the load
/// generators that drive them from outside (Loops.cpp), and the small
/// statistics and ledger helpers both use. Everything here talks to the
/// program through its public APIs only: SocketServer, BlockingClient,
/// WorkerPool, Interpreter, deployDefense, the FrameCodec functions and
/// RequestRng.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_PERFBENCH_BENCH_H
#define SMOKESTACK_PERFBENCH_BENCH_H

#include "net/Client.h"
#include "net/SocketServer.h"
#include "runtime/WorkerPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using namespace smokestack;

/// The named workloads (BENCHMARK.json).
enum class Kind { Wire, Calls, Chaos };

/// Prints "perfbench: <message>" to stderr and exits with code 2, without
/// printing a result line.
[[noreturn]] void die(const char *Fmt, ...);

/// Monotonic nanoseconds (the program's own steady clock).
uint64_t nowNs();

/// CPU time of the calling thread, in nanoseconds.
uint64_t threadCpuNs();

/// Nearest-rank percentile (\p Q in (0, 1]); sorts \p V. 0 when empty.
double percentile(std::vector<double> &V, double Q);

//===----------------------------------------------------------------------===//
// Served programs (Scenario.cpp)
//===----------------------------------------------------------------------===//

/// Function invocations of one benign request, counting the entry point:
/// Listing 1 is driver() plus eight vuln() calls; the call kernel is main()
/// plus KernelCalls leaf() calls.
inline constexpr unsigned KernelCalls = 2000;
unsigned callsPerRequest(Kind K);

/// One compiled build of a workload's module.
struct Variant {
  std::unique_ptr<Module> M;
  InterpreterOptions Interp;
  /// Stale-layout overflow record sent on every eighth request; empty for
  /// builds that are not attacked (the call kernel, unhardened builds).
  std::vector<uint8_t> Stale;
};

/// The attacker's preparation, done once per run outside any timing: finds
/// the first build seed derived from \p Seed whose disclosed layout yields
/// a stale payload. Returns the build seed and stores the payload.
uint64_t prepareAttack(Kind K, uint64_t Seed, std::vector<uint8_t> &Stale);

/// Parses the workload's module and deploys Smokestack (\p Harden) or no
/// defense with \p BuildSeed. This is the timed "deploy" set-up stage.
Variant buildVariant(Kind K, bool Harden, uint64_t BuildSeed,
                     const std::vector<uint8_t> &Stale);

/// The per-shard pool template (one worker) for \p V.
PoolOptions poolOptions(Kind K, uint64_t Seed, const Variant &V);

/// The socket front-end configuration serving \p PO.
ServerOptions serverOptions(Kind K, uint64_t Seed, const PoolOptions &PO);

PoolRequest poolRequest(const Variant &V, uint64_t Index);
WireRequest wireRequest(const Variant &V, uint64_t Index);
inline bool isAttack(const Variant &V, uint64_t Index) {
  return !V.Stale.empty() && Index % 8 == 5;
}

//===----------------------------------------------------------------------===//
// Ledger: what the benchmark observed, checked against a reference later
//===----------------------------------------------------------------------===//

/// One request stream (a variant served under one pool configuration).
/// Every outcome observed anywhere — over the wire or in-process — lands in
/// Observed and is compared with an in-process reference pool at the end.
struct Stream {
  const Variant *V = nullptr;
  PoolOptions PO;
  uint64_t Next = 0; ///< Next unused request index.
  /// A deque: growing it never copies, so booking a response never stalls
  /// the receiving thread on a reallocation.
  std::deque<PoolOutcome> Observed;
};

struct Ledger {
  uint64_t Attempted = 0;
  /// Requests without a served answer: missing, shed, protocol error,
  /// deadline expired or missed. Reference mismatches are added later.
  uint64_t Failed = 0;
};

/// Books one wire response into \p S (served statuses) or \p L.Failed.
void bookResponse(const WireResponse &R, Stream &S, Ledger &L);

//===----------------------------------------------------------------------===//
// Load generators (Loops.cpp)
//===----------------------------------------------------------------------===//

/// What one load phase measured.
struct LoopStats {
  uint64_t Completed = 0;
  double Seconds = 0;
  std::vector<double> LatUs;  ///< Per-request latency.
  std::vector<double> LateUs; ///< How late each send ran against its due time.
  /// Index range the phase used: [FirstIndex, FirstIndex + Sent).
  uint64_t FirstIndex = 0;
  uint64_t Sent = 0;
  /// CPU time of the load generator's own threads during the phase, so
  /// the caller can take it out of the process's CPU time.
  uint64_t ClientCpuNs = 0;
};

/// Closed loop on one connection: keeps \p Window requests outstanding
/// until \p Seconds pass or \p MaxRequests were sent. Latency is send to
/// receive; a send is due the moment the response that freed its slot
/// arrived. \p SentCounter, when set, counts every send.
LoopStats wireClosedLoop(BlockingClient &C, Stream &S, Ledger &L,
                         unsigned Window, double Seconds,
                         uint64_t MaxRequests = UINT64_MAX,
                         std::atomic<uint64_t> *SentCounter = nullptr);

/// Open loop on one connection at \p Rate requests per second for
/// \p Seconds: one sender thread on a fixed schedule, this thread receives.
/// Latency is timed from each request's scheduled send time.
/// \p SentCounter, when set, counts every send.
LoopStats wireOpenLoop(BlockingClient &C, Stream &S, Ledger &L, double Rate,
                       double Seconds,
                       std::atomic<uint64_t> *SentCounter = nullptr);

/// Malformed-frame chaff, each frame on its own throwaway connection.
struct Chaff {
  uint64_t ZeroLength = 0;
  uint64_t Oversize = 0;
  uint64_t Garbage = 0;
  uint64_t Truncated = 0;
  uint64_t Resets = 0;
  uint64_t frames() const { return ZeroLength + Oversize + Garbage + Truncated; }
};

/// Sends chaff until \p Stop, keeping frames() at >= 1% of \p RequestsSent.
/// Publishes its thread's CPU time in \p CpuNs as it goes. Returns false
/// when the server did not answer a chaff frame as expected.
bool chaffLoop(uint16_t Port, const std::atomic<uint64_t> &RequestsSent,
               const std::atomic<bool> &Stop, Chaff &Out,
               std::atomic<uint64_t> &CpuNs);

/// A WorkerPool driven with one request outstanding: submit, then wait on
/// the pool's OnOutcome hook.
class SyncPool {
public:
  SyncPool(Module &M, PoolOptions PO);
  ~SyncPool();
  SyncPool(const SyncPool &) = delete;
  SyncPool &operator=(const SyncPool &) = delete;

  void start() { Pool.start(); }
  /// Serves request \p R; returns its submit-to-outcome time in ns.
  uint64_t serve(PoolRequest R, PoolOutcome &Out);
  /// Closes the pool; books() is valid afterwards.
  void finish() { Pool.finish(); }
  const PoolBooks &books() const { return Pool.books(); }

private:
  PoolOptions hooked(PoolOptions PO);

  std::mutex Mu;
  std::condition_variable Cv;
  bool Ready = false;
  PoolOutcome Last;
  uint64_t DoneNs = 0;
  WorkerPool Pool; ///< Last: its hook uses the members above.
};

/// Serves requests of \p S from its next index through \p P, one at a
/// time, for \p Seconds or \p MaxRequests requests, booking each outcome.
LoopStats poolPhase(SyncPool &P, Stream &S, Ledger &L, double Seconds,
                    uint64_t MaxRequests = UINT64_MAX);

} // namespace perfbench

#endif // SMOKESTACK_PERFBENCH_BENCH_H
