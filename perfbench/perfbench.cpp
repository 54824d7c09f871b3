//===- perfbench/perfbench.cpp - The repository benchmark -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload wire|calls|chaos --seed N --seconds S --trace 0|1
///
/// Runs one workload (see Scenario.cpp and BENCHMARK.json) from a seed:
///
///   1. set-up, repeated SetupReps times (the last one is kept): module
///      build + deployDefense, pool or server construction, first response
///      and warm-up (JIT tiering, arena first touch);
///   2. the timed phases;
///   3. with --trace 1, a layer probe: the same request stream through
///      untraced and traced in-process pools, the socket front-end at one
///      request outstanding, and the unhardened build, interleaved;
///   4. the check: every outcome the run observed, over the wire or
///      in-process, is compared with an in-process reference WorkerPool
///      for the same seed and index (trap, return value, steps, attempts,
///      poisoned flag), plus the server's wire books.
///
/// Prints a human-readable summary, then one JSON line: {"correct",
/// "attempted", "failed", "metrics"}; end-to-end metrics with --trace 0,
/// per-layer metrics with --trace 1. Exits 1 on any mismatch, 2 on a
/// harness failure.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "attacks/Scenarios.h"
#include "obs/Trace.h"
#include "runtime/RequestRng.h"
#include "support/Statistics.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

// Workload constants.
/// Set-ups per run; setup_s is their median. The first one or two in a
/// process cost up to twice as much (fresh pages from the kernel), so an
/// odd count well above two keeps the median among the settled ones.
constexpr unsigned SetupReps = 9;
constexpr unsigned WireWindow = 128;
constexpr unsigned ChaosWindow = 16;
constexpr uint64_t WarmRequests = 256;
constexpr uint64_t KernelWarmRequests = 16;
constexpr uint64_t CallsBlock = 8;
/// Open-loop rates: about a sixth of the closed-loop rps at the workload's
/// window on a 4-vCPU host (128 on wire, 16 on chaos). That is low enough
/// that the server keeps up even while the host runs it several times
/// slower; at a third of the closed-loop rps it falls behind then,
/// batches, and its CPU cost per request drops by 10-25%.
constexpr double WireRate = 20000;
constexpr double ChaosRate = 10000;
/// Timed segments per run. Wire and chaos split each of their Segments
/// rounds into OpenSegments / Segments open-loop segments, which take
/// OpenShare of the time, and one closed-loop segment; calls alternates hardened and plain blocks of
/// CallsBlock requests for Segments segments.
constexpr unsigned Segments = 16;
constexpr unsigned OpenSegments = 128;
constexpr double OpenShare = 0.75;
/// cpu_us_per_req on calls is this quantile of the per-block CPU cost.
/// One request is outstanding, so nothing batches, and a block costs more
/// only when the host's other tenants contend for the caches; the low
/// quantile is the cost the program itself sets.
constexpr double CallsCostQuantile = 0.02;
/// An open-loop segment is invalid when the sender fell behind its schedule
/// for most of it: median lateness above this (10 inter-arrival periods on
/// wire, 5 on chaos).
/// Short stalls stay in: latency is timed from the schedule, so they show
/// up as latency, as a user would see them. The run is invalid when fewer
/// than a quarter of its open segments are valid; its latency figures are
/// then flagged in the summary.
constexpr double MaxLateP50Us = 500;
/// Reconciliation: traced queue + reseed + exec must cover submit→outcome
/// to within this share.
constexpr double ReconcileTolerance = 0.25;

struct Args {
  Kind K = Kind::Wire;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      die("flag %s needs a value", Flag.c_str());
    std::string Val = Argv[++I];
    if (Flag == "--workload") {
      HaveWorkload = true;
      if (Val == "wire")
        A.K = Kind::Wire;
      else if (Val == "calls")
        A.K = Kind::Calls;
      else if (Val == "chaos")
        A.K = Kind::Chaos;
      else
        die("unknown workload '%s'", Val.c_str());
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), nullptr);
    } else if (Flag == "--trace") {
      A.Trace = Val == "1";
    } else {
      die("unknown flag %s", Flag.c_str());
    }
  }
  if (!HaveWorkload || !(A.Seconds > 0))
    die("usage: perfbench --workload wire|calls|chaos --seed N --seconds S "
        "--trace 0|1");
  return A;
}

double msSince(uint64_t T0) { return static_cast<double>(nowNs() - T0) / 1e6; }

double median(std::vector<double> V) { return percentile(V, 0.5); }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// The contents of /proc/<Pid>/<File>, or "" when it cannot be read.
std::string readProc(const std::string &Pid, const char *File) {
  std::string Out;
  if (std::FILE *F = std::fopen(("/proc/" + Pid + "/" + File).c_str(), "r")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof Buf, F)) > 0)
      Out.append(Buf, N);
    std::fclose(F);
  }
  return Out;
}

/// /proc/<Pid>/stat from field 3 (state) on: "pid (comm) state ppid ...",
/// where comm may hold spaces.
std::string statFields(const std::string &Pid) {
  std::string Stat = readProc(Pid, "stat");
  size_t Paren = Stat.rfind(')');
  return Paren == std::string::npos ? "" : Stat.substr(Paren + 1);
}

/// The PIDs of this process's live children (the process-mode shards).
std::vector<std::string> childPids() {
  std::vector<std::string> Out;
  const long Me = static_cast<long>(getpid());
  for (const auto &E : std::filesystem::directory_iterator("/proc")) {
    std::string Name = E.path().filename().string();
    long Parent = -1;
    if (std::isdigit(static_cast<unsigned char>(Name[0])) &&
        std::sscanf(statFields(Name).c_str(), " %*c %ld", &Parent) == 1 &&
        Parent == Me)
      Out.push_back(Name);
  }
  return Out;
}

/// CPU nanoseconds (user plus system) used so far by this process and,
/// with \p Children, by its reaped and live children. A shard killed
/// mid-run moves from the live sum to the reaped one, so the total only
/// grows. Unlike wall time, it leaves out the time the host runs something
/// else.
uint64_t cpuNs(bool Children) {
  auto Ns = [](const timespec &T) {
    return static_cast<uint64_t>(T.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(T.tv_nsec);
  };
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  uint64_t Total = Ns(Ts);
  if (!Children)
    return Total;
  rusage Reaped = {};
  getrusage(RUSAGE_CHILDREN, &Reaped);
  for (const timeval &T : {Reaped.ru_utime, Reaped.ru_stime})
    Total += static_cast<uint64_t>(T.tv_sec) * 1000000000ULL +
             static_cast<uint64_t>(T.tv_usec) * 1000ULL;
  for (const std::string &Pid : childPids()) {
    clockid_t Clock;
    if (clock_getcpuclockid(static_cast<pid_t>(std::stol(Pid)), &Clock) == 0 &&
        clock_gettime(Clock, &Ts) == 0)
      Total += Ns(Ts);
  }
  return Total;
}

/// Stages of one set-up. ServerMs is the front-end start: SocketServer
/// construction and start() (shard pools, forks) for wire and chaos, the
/// two WorkerPool::start() calls for calls. TotalS also covers warm-up.
struct SetupTimes {
  double DeployMs = 0, ServerMs = 0, FirstRespMs = 0, TotalS = 0;
};

/// The state of one workload run. Streams point into the variants, so a
/// Run is never moved.
struct Run {
  Args A;
  uint64_t BuildSeed = 0;
  std::vector<uint8_t> Stale;
  Variant Hard, Plain;
  Stream HardS, PlainS;
  Ledger L;
  std::unique_ptr<SocketServer> Server;
  std::unique_ptr<BlockingClient> Client;
  std::unique_ptr<SyncPool> HardPool, PlainPool;
  /// Books of the drained request server (wire, chaos) or of the layer
  /// probe's front-end (calls).
  DrainReport Net;
  bool HaveNet = false;
  std::vector<std::string> CheckFailures;

  void check(bool Ok, const std::string &What) {
    if (!Ok)
      CheckFailures.push_back(What);
  }
};

void teardown(Run &R) {
  R.Client.reset();
  if (R.Server) {
    R.Net = R.Server->drain();
    R.HaveNet = true;
    R.Server.reset();
  }
  R.HardPool.reset();
  R.PlainPool.reset();
}

/// One set-up of the workload's serving stack, from module text to a warm
/// server. Replaces whatever the previous set-up built.
SetupTimes setupOnce(Run &R) {
  teardown(R);
  R.HardS = Stream();
  R.PlainS = Stream();
  R.L = Ledger();
  R.HaveNet = false;
  const Kind K = R.A.K;
  SetupTimes T;
  const uint64_t T0 = nowNs();

  uint64_t Mark = nowNs();
  R.Hard = buildVariant(K, /*Harden=*/true, R.BuildSeed, R.Stale);
  if (K == Kind::Calls)
    R.Plain = buildVariant(K, /*Harden=*/false, R.BuildSeed, R.Stale);
  T.DeployMs = msSince(Mark);
  R.HardS.V = &R.Hard;
  R.HardS.PO = poolOptions(K, R.A.Seed, R.Hard);

  if (K == Kind::Calls) {
    R.PlainS.V = &R.Plain;
    R.PlainS.PO = poolOptions(K, R.A.Seed, R.Plain);
    R.HardPool = std::make_unique<SyncPool>(*R.Hard.M, R.HardS.PO);
    R.PlainPool = std::make_unique<SyncPool>(*R.Plain.M, R.PlainS.PO);
    Mark = nowNs();
    R.HardPool->start();
    R.PlainPool->start();
    T.ServerMs = msSince(Mark);
    Mark = nowNs();
    poolPhase(*R.HardPool, R.HardS, R.L, 1e9, 1);
    T.FirstRespMs = msSince(Mark);
    poolPhase(*R.HardPool, R.HardS, R.L, 1e9, KernelWarmRequests);
    poolPhase(*R.PlainPool, R.PlainS, R.L, 1e9, KernelWarmRequests);
  } else {
    Mark = nowNs();
    R.Server = std::make_unique<SocketServer>(
        *R.Hard.M, serverOptions(K, R.A.Seed, R.HardS.PO));
    std::string Err;
    if (!R.Server->start(&Err))
      die("server start failed: %s", Err.c_str());
    T.ServerMs = msSince(Mark);
    R.Client = std::make_unique<BlockingClient>();
    if (!R.Client->connectTo(R.Server->port(), &Err))
      die("connect failed: %s", Err.c_str());
    Mark = nowNs();
    wireClosedLoop(*R.Client, R.HardS, R.L, 1, 1e9, 1);
    T.FirstRespMs = msSince(Mark);
    wireClosedLoop(*R.Client, R.HardS, R.L, WireWindow, 1e9, WarmRequests);
  }
  T.TotalS = static_cast<double>(nowNs() - T0) / 1e9;
  return T;
}

/// What the timed phases measured.
struct MainResult {
  /// Serving CPU time per hardened request, per open-loop segment (wire,
  /// chaos) or hardened block (calls), and the run's figure from them.
  std::vector<double> PhaseCost;
  double CpuUsPerReq = 0;
  /// Wall-clock figures (reported, not gated).
  double Rps = 0;
  double PlainRps = 0; ///< calls only
  double P50 = 0, P99 = 0;
  /// Per-segment throughput and latency percentiles, for the summary.
  std::vector<double> SegRps, SegP50, SegP99;
  /// Open-loop sender lateness p99 per segment (wire, chaos), and the
  /// segments whose lateness made them invalid.
  std::vector<double> SegLateP99;
  unsigned InvalidSegments = 0;
  /// Too few open segments were valid: P50/P99 then come from all of them
  /// and measure the generator as much as the program.
  bool LatencyInvalid = false;
  std::vector<double> LatUs;
  std::vector<double> LateUs;
  Chaff Junk;
  uint64_t FirstIndex = 0, Count = 0; ///< Hardened index range of the phases.
};

/// Runs the timed phases as short segments, interleaved so that each kind
/// of phase sees the whole run. The serving CPU cost per request is taken
/// at a fixed offered load: on wire and chaos an open loop at a fixed rate,
/// whose arrivals, and so the server's wake-ups and batching, do not depend
/// on how fast the host runs the program (a closed loop batches more when
/// the host is slow, which moves its cost per request by 15-20% from run to
/// run); on calls one request outstanding. The load generator's own threads
/// are taken out. Wall-clock throughput and latency are taken per segment
/// and aggregated over the segments, so a stretch in which the host
/// deschedules the program moves a few segments rather than the figure.
MainResult runMain(Run &R, double Seconds) {
  MainResult M;
  M.FirstIndex = R.HardS.Next;
  const Kind K = R.A.K;
  const double Seg = Seconds / Segments;
  const bool Children = K == Kind::Chaos;
  auto AddCost = [&](uint64_t Cpu0, uint64_t ClientCpuNs, uint64_t Completed) {
    M.PhaseCost.push_back((static_cast<double>(cpuNs(Children) - Cpu0) -
                           static_cast<double>(ClientCpuNs)) /
                          1e3 / static_cast<double>(Completed));
  };
  auto AddLatencies = [&M](std::vector<double> &LatUs) {
    M.SegP50.push_back(percentile(LatUs, 0.5));
    M.SegP99.push_back(percentile(LatUs, 0.99));
    M.LatUs.insert(M.LatUs.end(), LatUs.begin(), LatUs.end());
  };

  if (K == Kind::Calls) {
    // Hardened and plain blocks alternate, so both see the same machine.
    std::vector<double> SegPlainRps;
    for (unsigned I = 0; I != Segments; ++I) {
      const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seg * 1e9);
      double HardSec = 0, PlainSec = 0;
      uint64_t HardN = 0, PlainN = 0;
      std::vector<double> LatUs;
      while (nowNs() < Deadline) {
        const uint64_t Cpu0 = cpuNs(Children);
        LoopStats H = poolPhase(*R.HardPool, R.HardS, R.L, 1e9, CallsBlock);
        AddCost(Cpu0, H.ClientCpuNs, H.Completed);
        LoopStats P = poolPhase(*R.PlainPool, R.PlainS, R.L, 1e9, CallsBlock);
        HardSec += H.Seconds;
        HardN += H.Completed;
        PlainSec += P.Seconds;
        PlainN += P.Completed;
        LatUs.insert(LatUs.end(), H.LatUs.begin(), H.LatUs.end());
        M.LateUs.insert(M.LateUs.end(), H.LateUs.begin(), H.LateUs.end());
      }
      M.SegRps.push_back(static_cast<double>(HardN) / HardSec);
      SegPlainRps.push_back(static_cast<double>(PlainN) / PlainSec);
      AddLatencies(LatUs);
    }
    M.PlainRps = median(SegPlainRps);
    M.CpuUsPerReq = percentile(M.PhaseCost, CallsCostQuantile);
  } else {
    // Each round is a burst of short open-loop segments (a few thousand
    // requests each, so most fall between host stalls) followed by one
    // closed-loop segment. An open segment whose sender ran late counts as
    // invalid: its latencies would measure the generator, so they are left
    // out. On chaos a chaff thread runs throughout.
    std::atomic<uint64_t> Sent{0}, ChaffCpuNs{0};
    std::atomic<bool> Stop{false};
    bool ChaffOk = true;
    std::thread ChaffThread;
    if (K == Kind::Chaos)
      ChaffThread = std::thread([&] {
        ChaffOk = chaffLoop(R.Server->port(), Sent, Stop, M.Junk, ChaffCpuNs);
      });
    const double Rate = K == Kind::Wire ? WireRate : ChaosRate;
    const unsigned Window = K == Kind::Wire ? WireWindow : ChaosWindow;
    const unsigned OpenPerRound = OpenSegments / Segments;
    const double OpenSeg = Seg * OpenShare / OpenPerRound;
    std::vector<std::vector<double>> Rejected;
    for (unsigned I = 0; I != Segments; ++I) {
      for (unsigned J = 0; J != OpenPerRound; ++J) {
        const uint64_t Cpu0 = cpuNs(Children);
        const uint64_t Chaff0 = ChaffCpuNs.load();
        LoopStats Open =
            wireOpenLoop(*R.Client, R.HardS, R.L, Rate, OpenSeg, &Sent);
        AddCost(Cpu0, Open.ClientCpuNs + (ChaffCpuNs.load() - Chaff0),
                Open.Completed);
        M.SegLateP99.push_back(percentile(Open.LateUs, 0.99));
        if (percentile(Open.LateUs, 0.5) > MaxLateP50Us) {
          ++M.InvalidSegments;
          Rejected.push_back(std::move(Open.LatUs));
        } else {
          AddLatencies(Open.LatUs);
        }
      }
      LoopStats Closed = wireClosedLoop(*R.Client, R.HardS, R.L, Window,
                                        Seg * (1 - OpenShare), UINT64_MAX,
                                        &Sent);
      M.SegRps.push_back(static_cast<double>(Closed.Completed) /
                         Closed.Seconds);
    }
    Stop.store(true);
    if (ChaffThread.joinable())
      ChaffThread.join();
    if (!ChaffOk)
      die("a chaff frame was not answered as expected");
    if (M.SegP99.size() * 4 < OpenSegments) {
      M.LatencyInvalid = true;
      for (std::vector<double> &LatUs : Rejected)
        AddLatencies(LatUs);
    }
    M.CpuUsPerReq = median(M.PhaseCost);
  }
  // The wall-clock figures are taken over the quietest quarter of the
  // segments: the upper quartile of segment throughput, the lower quartile
  // of segment percentiles. On a shared virtual machine the host preempts
  // or slows the program's vCPUs in a random part of the segments, which
  // lowers their throughput by up to half and lifts their p99 by one to two
  // orders of magnitude; the quiet quarter follows the program itself.
  M.Rps = percentile(M.SegRps, 0.75);
  M.P50 = percentile(M.SegP50, 0.25);
  M.P99 = percentile(M.SegP99, 0.25);
  M.Count = R.HardS.Next - M.FirstIndex;
  return M;
}

//===----------------------------------------------------------------------===//
// Layer probe (--trace 1)
//===----------------------------------------------------------------------===//

uint64_t statValue(const char *Name) {
  Statistic *S = findStatistic(Name);
  return S ? S->value() : 0;
}

WireResponse toWire(const PoolOutcome &O) {
  WireResponse W;
  W.Index = O.Index;
  W.Status = O.Poisoned ? WireStatus::Poisoned
             : O.Trap == TrapKind::None ? WireStatus::Ok
                                        : WireStatus::Trapped;
  W.Trap = O.Trap;
  W.Attempts = O.Attempts;
  W.ReturnValue = O.ReturnValue;
  W.Steps = O.Steps;
  return W;
}

/// Client-side codec cost per frame over the run's own request/response
/// stream: encodeRequestFrame for the requests of the timed phases, and
/// FrameDecoder + parseResponsePayload over the matching response bytes
/// fed in socket-sized chunks.
void measureCodec(const Run &R, const MainResult &M, double &EncodeNs,
                  double &DecodeNs) {
  const uint64_t N = std::min<uint64_t>(M.Count, 100000);
  std::vector<WireRequest> Reqs;
  Reqs.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Reqs.push_back(wireRequest(R.Hard, M.FirstIndex + I));
  size_t Sink = 0;
  uint64_t T0 = nowNs();
  for (const WireRequest &Q : Reqs)
    Sink += encodeRequestFrame(Q).size();
  EncodeNs = static_cast<double>(nowNs() - T0) / static_cast<double>(N);

  std::vector<uint8_t> Bytes;
  uint64_t Frames = 0;
  for (const PoolOutcome &O : R.HardS.Observed) {
    if (O.Index < M.FirstIndex || Frames == N)
      continue;
    std::vector<uint8_t> F = encodeResponseFrame(toWire(O));
    Bytes.insert(Bytes.end(), F.begin(), F.end());
    ++Frames;
  }
  FrameDecoder D;
  std::vector<uint8_t> Payload;
  FrameError Err;
  WireResponse W;
  uint64_t Parsed = 0;
  T0 = nowNs();
  for (size_t Off = 0; Off < Bytes.size(); Off += 4096) {
    D.feed(Bytes.data() + Off, std::min<size_t>(4096, Bytes.size() - Off));
    while (D.next(Payload, Err) == FrameDecoder::Item::Payload)
      Parsed += parseResponsePayload(Payload.data(), Payload.size(), W);
  }
  DecodeNs = static_cast<double>(nowNs() - T0) / static_cast<double>(Frames);
  if (Parsed != Frames || Sink == 0)
    die("codec replay decoded %" PRIu64 " of %" PRIu64 " frames", Parsed,
        Frames);
}

/// Per-request stage sums of a traced pool, over the measured indices.
struct Stages {
  std::vector<double> QueueUs, ReseedUs, ExecUs, BenignExecUs;
  double StageNs = 0, EndToEndNs = 0;
  double Steps = 0, Draws = 0;
  uint64_t Requests = 0;
};

Stages collectStages(TraceRecorder &Rec, const std::map<uint64_t, uint64_t> &E2E,
                     const Variant &V) {
  struct Sum {
    uint64_t Queue = 0, Reseed = 0, Exec = 0, Steps = 0, Draws = 0;
  };
  std::map<uint64_t, Sum> ByIndex;
  for (const TraceSpan &S : Rec.take()) {
    if (!E2E.count(S.RequestIndex))
      continue;
    Sum &U = ByIndex[S.RequestIndex];
    U.Queue += S.QueueNanos;
    U.Reseed += S.ReseedNanos;
    U.Exec += S.ExecNanos;
    U.Steps += S.Steps;
    U.Draws += S.RngDraws;
  }
  Stages St;
  for (const auto &[Index, U] : ByIndex) {
    St.QueueUs.push_back(static_cast<double>(U.Queue) / 1e3);
    St.ReseedUs.push_back(static_cast<double>(U.Reseed) / 1e3);
    St.ExecUs.push_back(static_cast<double>(U.Exec) / 1e3);
    if (!isAttack(V, Index))
      St.BenignExecUs.push_back(static_cast<double>(U.Exec) / 1e3);
    St.StageNs += static_cast<double>(U.Queue + U.Reseed + U.Exec);
    St.EndToEndNs += static_cast<double>(E2E.at(Index));
    St.Steps += static_cast<double>(U.Steps);
    St.Draws += static_cast<double>(U.Draws);
    ++St.Requests;
  }
  if (St.Requests == 0)
    die("the traced pool recorded no spans");
  return St;
}

void recordLatencies(const LoopStats &S, std::map<uint64_t, uint64_t> &E2E) {
  for (uint64_t K = 0; K != S.Sent; ++K)
    E2E[S.FirstIndex + K] = static_cast<uint64_t>(S.LatUs[K] * 1e3);
}

/// The layer probe: the workload's hardened stream through an untraced and
/// a traced one-worker pool, through the front-end at one request
/// outstanding, and the unhardened build through a traced pool, in
/// interleaved rounds. Returns the per-layer metrics it measures; the
/// caller adds the ones read from the timed phases and the wire books.
std::vector<Metric> runProbe(Run &R, const MainResult &M, double Seconds) {
  const Kind K = R.A.K;
  std::vector<Metric> Out;
  auto Add = [&](const char *Name, double V, const char *Unit) {
    Out.push_back({Name, V, Unit});
  };

  // RNG draws from a standalone chain of the pool's configuration.
  std::vector<double> DrawNs;
  {
    RequestRng Rng(R.HardS.PO.Rng);
    uint64_t Sink = 0;
    for (uint64_t B = 0; B != 5; ++B) {
      Rng.reseed(R.A.Seed, B);
      uint64_t T0 = nowNs();
      for (unsigned I = 0; I != 20000; ++I)
        Sink ^= Rng.source().next();
      DrawNs.push_back(static_cast<double>(nowNs() - T0) / 20000.0);
    }
    if (Sink == 0)
      die("the RNG chain drew nothing but zeros");
  }

  // The unhardened build for the prologue estimate (calls already has it).
  if (K != Kind::Calls) {
    R.Plain = buildVariant(K, /*Harden=*/false, R.BuildSeed, R.Stale);
    R.PlainS.V = &R.Plain;
    R.PlainS.PO = poolOptions(K, R.A.Seed, R.Plain);
  }

  uint64_t Mark = nowNs();
  SyncPool Untraced(*R.Hard.M, R.HardS.PO);
  double PoolMs = msSince(Mark);
  TraceRecorder Rec, PlainRec;
  PoolOptions TracedPO = R.HardS.PO;
  TracedPO.Tracer = &Rec;
  SyncPool Traced(*R.Hard.M, TracedPO);
  PoolOptions PlainPO = R.PlainS.PO;
  PlainPO.Tracer = &PlainRec;
  SyncPool Plain(*R.Plain.M, PlainPO);
  Untraced.start();
  Traced.start();
  Plain.start();

  // The calls workload has no front-end of its own; serve its stream
  // through a one-shard thread-mode server to price the net layer.
  std::unique_ptr<SocketServer> ProbeServer;
  std::unique_ptr<BlockingClient> ProbeClient;
  BlockingClient *Client = R.Client.get();
  if (K == Kind::Calls) {
    ProbeServer = std::make_unique<SocketServer>(
        *R.Hard.M, serverOptions(K, R.A.Seed, R.HardS.PO));
    ProbeClient = std::make_unique<BlockingClient>();
    std::string Err;
    if (!ProbeServer->start(&Err) ||
        !ProbeClient->connectTo(ProbeServer->port(), &Err))
      die("probe server: %s", Err.c_str());
    Client = ProbeClient.get();
    wireClosedLoop(*Client, R.HardS, R.L, 1, 1e9, KernelWarmRequests);
  }

  const uint64_t Warm = K == Kind::Calls ? KernelWarmRequests : WarmRequests;
  poolPhase(Untraced, R.HardS, R.L, 1e9, Warm);
  uint64_t CodeBytes0 = statValue("jit.code-bytes");
  {
    ObsTimingScope Timing;
    poolPhase(Traced, R.HardS, R.L, 1e9, Warm);
  }
  double CodeBytes =
      static_cast<double>(statValue("jit.code-bytes") - CodeBytes0);
  {
    ObsTimingScope Timing;
    poolPhase(Plain, R.PlainS, R.L, 1e9, Warm);
  }

  constexpr unsigned Rounds = 3;
  const double Seg = Seconds / (Rounds * 4);
  std::vector<double> UntracedLat, WireLat;
  double USec = 0, TSec = 0, PSec = 0;
  uint64_t UN = 0, TN = 0, PN = 0, NativeCalls = 0, Restores = 0;
  std::map<uint64_t, uint64_t> TracedE2E, PlainE2E;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    LoopStats U = poolPhase(Untraced, R.HardS, R.L, Seg);
    UntracedLat.insert(UntracedLat.end(), U.LatUs.begin(), U.LatUs.end());
    USec += U.Seconds;
    UN += U.Completed;

    uint64_t Calls0 = statValue("jit.native-calls");
    uint64_t Restores0 = statValue("vm.snapshot-restores");
    LoopStats T;
    {
      ObsTimingScope Timing;
      T = poolPhase(Traced, R.HardS, R.L, Seg);
    }
    NativeCalls += statValue("jit.native-calls") - Calls0;
    Restores += statValue("vm.snapshot-restores") - Restores0;
    recordLatencies(T, TracedE2E);
    TSec += T.Seconds;
    TN += T.Completed;

    LoopStats W = wireClosedLoop(*Client, R.HardS, R.L, 1, Seg);
    WireLat.insert(WireLat.end(), W.LatUs.begin(), W.LatUs.end());

    LoopStats P;
    {
      ObsTimingScope Timing;
      P = poolPhase(Plain, R.PlainS, R.L, Seg);
    }
    recordLatencies(P, PlainE2E);
    PSec += P.Seconds;
    PN += P.Completed;
  }
  Untraced.finish();
  Traced.finish();
  Plain.finish();
  if (ProbeServer) {
    ProbeClient.reset();
    R.Net = ProbeServer->drain();
    R.HaveNet = true;
  }

  Stages Hs = collectStages(Rec, TracedE2E, R.Hard);
  Stages Ps = collectStages(PlainRec, PlainE2E, R.Plain);
  double Gap = 1.0 - Hs.StageNs / Hs.EndToEndNs;
  R.check(Gap >= -0.01 && Gap <= ReconcileTolerance,
          "reconciliation: queue + reseed + exec cover " +
              std::to_string(100 * (1 - Gap)) + "% of submit-to-outcome");
  const PoolBooks &TB = Traced.books();

  double EncodeNs = 0, DecodeNs = 0;
  measureCodec(R, M, EncodeNs, DecodeNs);

  double UntracedRps = static_cast<double>(UN) / USec;
  double TracedRps = static_cast<double>(TN) / TSec;
  double Req = static_cast<double>(Hs.Requests);
  Add("net.encode_ns", EncodeNs, "ns");
  Add("net.decode_ns", DecodeNs, "ns");
  Add("runtime.pool_p50_us", percentile(UntracedLat, 0.5), "us");
  Add("runtime.pool_p99_us", percentile(UntracedLat, 0.99), "us");
  Add("net.overhead_us",
      percentile(WireLat, 0.5) - percentile(UntracedLat, 0.5), "us");
  Add("runtime.queue_p50_us", percentile(Hs.QueueUs, 0.5), "us");
  Add("runtime.queue_p99_us", percentile(Hs.QueueUs, 0.99), "us");
  Add("runtime.reseed_us", percentile(Hs.ReseedUs, 0.5), "us");
  Add("runtime.reconcile_gap", Gap, "ratio");
  Add("runtime.retries_per_kreq",
      1000.0 * static_cast<double>(TB.Retries) /
          static_cast<double>(TB.Submitted),
      "count");
  Add("runtime.restores_per_kreq",
      1000.0 * static_cast<double>(Restores) / static_cast<double>(TN),
      "count");
  Add("vm.exec_p50_us", percentile(Hs.ExecUs, 0.5), "us");
  Add("vm.exec_p99_us", percentile(Hs.ExecUs, 0.99), "us");
  Add("vm.steps_per_req", Hs.Steps / Req, "count");
  Add("vm.prologue_ns_per_call",
      (percentile(Hs.BenignExecUs, 0.5) - percentile(Ps.ExecUs, 0.5)) * 1e3 /
          callsPerRequest(K),
      "ns");
  Add("vm.plain_rps", static_cast<double>(PN) / PSec, "req/s");
  Add("vm.harden_overhead", (TSec / static_cast<double>(TN)) /
                                (PSec / static_cast<double>(PN)),
      "ratio");
  Add("jit.native_calls_per_req",
      static_cast<double>(NativeCalls) / static_cast<double>(TN), "count");
  Add("jit.code_bytes", CodeBytes, "B");
  Add("rng.draws_per_req", Hs.Draws / Req, "count");
  Add("rng.draw_ns", median(DrawNs), "ns");
  Add("rng.degraded_frac",
      TB.Rng.DrawsServed ? static_cast<double>(TB.Rng.DegradedDraws) /
                               static_cast<double>(TB.Rng.DrawsServed)
                         : 0.0,
      "ratio");
  Add("setup.pool_ms", PoolMs, "ms");
  Add("trace.overhead_pct", 100.0 * (UntracedRps - TracedRps) / UntracedRps,
      "%");
  return Out;
}

//===----------------------------------------------------------------------===//
// Reference check
//===----------------------------------------------------------------------===//

struct CheckTally {
  uint64_t Mismatches = 0, Poisoned = 0, Attacks = 0, AttackHits = 0;
};

bool sameOutcome(const PoolOutcome &A, const PoolOutcome &B) {
  return A.Trap == B.Trap && A.ReturnValue == B.ReturnValue &&
         A.Steps == B.Steps && A.Attempts == B.Attempts &&
         A.Poisoned == B.Poisoned;
}

/// Replays [0, S.Next) through an in-process reference pool (decoded engine,
/// four workers — outcomes are worker-count invariant) and compares every
/// observed outcome with the reference outcome of its index.
void checkStream(const Stream &S, CheckTally &T) {
  if (S.Observed.empty())
    return;
  PoolOptions PO = S.PO;
  PO.Workers = 4;
  PO.QueueCapacity = 1024;
  PO.Admission = AdmissionOptions();
  PO.InterpOpts.UseJit = false;
  WorkerPool Ref(*S.V->M, PO);
  Ref.start();
  for (uint64_t I = 0; I != S.Next; ++I)
    Ref.submit(poolRequest(*S.V, I));
  std::vector<PoolOutcome> Expect = Ref.finish();
  if (Expect.size() != S.Next)
    die("reference pool answered %zu of %" PRIu64 " requests", Expect.size(),
        S.Next);
  for (const PoolOutcome &O : S.Observed) {
    if (O.Index >= S.Next || !sameOutcome(O, Expect[O.Index])) {
      if (T.Mismatches++ < 5)
        std::fprintf(stderr,
                     "perfbench: index %" PRIu64 " differs from the reference "
                     "(trap %d/%d, ret %" PRIu64 "/%" PRIu64 ", steps %" PRIu64
                     "/%" PRIu64 ")\n",
                     O.Index, static_cast<int>(O.Trap),
                     O.Index < S.Next ? static_cast<int>(Expect[O.Index].Trap)
                                      : -1,
                     O.ReturnValue,
                     O.Index < S.Next ? Expect[O.Index].ReturnValue : 0,
                     O.Steps, O.Index < S.Next ? Expect[O.Index].Steps : 0);
      continue;
    }
    T.Poisoned += O.Poisoned;
    if (isAttack(*S.V, O.Index)) {
      ++T.Attacks;
      T.AttackHits += O.ok() && O.ReturnValue == DirectDopTarget;
    }
  }
}

/// The "VmHWM" field (peak RSS, KiB) of /proc/<Pid>/status.
double peakKb(const std::string &Pid) {
  std::string Status = readProc(Pid, "status");
  size_t At = Status.find("VmHWM:");
  long Kb = 0;
  if (At != std::string::npos)
    std::sscanf(Status.c_str() + At, "VmHWM: %ld", &Kb);
  return static_cast<double>(Kb);
}

/// Peak RSS of this process plus, with \p Children, the sum over its live
/// children (the process-mode shards), in MiB. getrusage(RUSAGE_CHILDREN)
/// would see only children already reaped, and only the largest of them.
double peakRssMb(bool Children) {
  double Kb = peakKb("self");
  if (Children)
    for (const std::string &Pid : childPids())
      Kb += peakKb(Pid);
  return Kb / 1024.0;
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value, Ms[I].Unit);
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  R.A = parseArgs(Argc, Argv);
  const Kind K = R.A.K;
  const double Seconds = R.A.Seconds;

  R.BuildSeed = prepareAttack(K, R.A.Seed, R.Stale);

  // The serving stack's footprint is read after the first set-up, in a
  // fresh process: later set-ups reuse what the allocator kept from earlier
  // ones, which moves the peak by 5% from run to run, and the outcome lists
  // the pool and this harness keep grow with run length. Only process-mode
  // shards have children to add; a scan of /proc here (about 200 entries)
  // made each later set-up of the in-process stacks 2-3x slower.
  std::vector<SetupTimes> Setups = {setupOnce(R)};
  const double RssMb = peakRssMb(K == Kind::Chaos);
  while (Setups.size() != SetupReps)
    Setups.push_back(setupOnce(R));
  auto SetupMedian = [&](double SetupTimes::*Field) {
    std::vector<double> V;
    for (const SetupTimes &S : Setups)
      V.push_back(S.*Field);
    return median(V);
  };

  MainResult M = runMain(R, R.A.Trace ? Seconds * 0.4 : Seconds);
  std::vector<Metric> Layer;
  if (R.A.Trace)
    Layer = runProbe(R, M, Seconds * 0.6);

  if (R.Server) {
    // Let the loop book the last chaff closes before drain freezes them.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    teardown(R);
  }
  R.HardPool.reset();
  R.PlainPool.reset();

  // Wire books of the request server (or the calls probe front-end).
  if (R.HaveNet) {
    const NetBooks &NB = R.Net.Net;
    R.check(R.Net.IdentityOk, "wire accounting identity");
    R.check(R.Net.Clean, "clean drain");
    R.check(NB.WireShed == 0 && NB.DeadlineRejected == 0 &&
                NB.ResponsesOrphaned == 0,
            "no shed, expired or orphaned responses");
    R.check(NB.FrameZeroLength == M.Junk.ZeroLength &&
                NB.FrameOversize == M.Junk.Oversize &&
                NB.BadPayload == M.Junk.Garbage &&
                NB.FrameTruncated == M.Junk.Truncated,
            "protocol errors == chaff sent, per class");
    if (K == Kind::Chaos)
      R.check(NB.ShardDeaths == NB.ShardRestarts,
              "every shard death was re-forked");
  }

  CheckTally Tally;
  checkStream(R.HardS, Tally);
  checkStream(R.PlainS, Tally);
  R.check(Tally.Mismatches == 0, "every outcome equals the reference");
  const uint64_t Failed = R.L.Failed + Tally.Mismatches;
  const bool Correct = Failed == 0 && R.CheckFailures.empty();
  const double AttackFrac =
      Tally.Attacks ? static_cast<double>(Tally.AttackHits) /
                          static_cast<double>(Tally.Attacks)
                    : 0.0;

  // Gated figures: set-up, CPU per request and memory. The wall-clock
  // throughput and latency follow the host's other tenants more than the
  // program on a shared machine; they are printed below and reported by the
  // traced run as client.* metrics.
  std::vector<Metric> E2E = {
      {"setup_s", SetupMedian(&SetupTimes::TotalS), "s"},
      {"cpu_us_per_req", M.CpuUsPerReq, "us"},
      {"rss_mb", RssMb, "MiB"},
  };
  std::vector<Metric> Wall = {
      {"client.rps", M.Rps, "req/s"},
      {"client.p50_us", M.P50, "us"},
      {"client.p99_us", M.P99, "us"},
  };

  // The human-readable summary: every end-to-end figure the workload has,
  // including the ones that are zero by construction on other workloads.
  static const char *Names[] = {"wire", "calls", "chaos"};
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              Names[static_cast<int>(K)], R.A.Seed, Seconds, R.A.Trace);
  for (const Metric &Mt : E2E)
    std::printf("  %-28s %14.4f %s\n", Mt.Name.c_str(), Mt.Value, Mt.Unit);
  for (const Metric &Mt : Wall)
    std::printf("  %-28s %14.4f %s (wall clock)%s\n", Mt.Name.c_str(),
                Mt.Value, Mt.Unit,
                M.LatencyInvalid && Mt.Name != "client.rps"
                    ? " INVALID: the open-loop sender fell behind"
                    : "");
  std::printf("  %-28s %14.6f ratio (%" PRIu64 " of %" PRIu64
              ", incl. %" PRIu64 " quarantined as the reference predicts)\n",
              "fail_frac",
              static_cast<double>(Failed + Tally.Poisoned) /
                  static_cast<double>(R.L.Attempted),
              Failed + Tally.Poisoned, R.L.Attempted, Tally.Poisoned);
  if (K != Kind::Calls)
    std::printf("  %-28s %14.6f ratio (%" PRIu64 " of %" PRIu64 ")\n",
                "attack_success_frac", AttackFrac, Tally.AttackHits,
                Tally.Attacks);
  if (K == Kind::Calls)
    std::printf("  %-28s %14.4f req/s (hardened/plain time %.3fx)\n",
                "plain_rps", M.PlainRps, M.PlainRps / M.Rps);
  std::printf("  samples: %zu latencies, %" PRIu64 " requests timed\n",
              M.LatUs.size(), M.Count);
  auto Range = [](const char *What, std::vector<double> V) {
    if (!V.empty())
      std::printf("  segments %-19s min %.1f  median %.1f  max %.1f (%zu)\n",
                  What, percentile(V, 0), percentile(V, 0.5), percentile(V, 1),
                  V.size());
  };
  Range("cpu us/req", M.PhaseCost);
  Range("rps", M.SegRps);
  Range("p50_us", M.SegP50);
  Range("p99_us", M.SegP99);
  Range("sender late p99 us", M.SegLateP99);
  if (M.InvalidSegments)
    std::printf("  %u open-loop segments invalid (sender behind schedule)\n",
                M.InvalidSegments);
  if (R.HaveNet)
    std::printf("  wire books: %" PRIu64 " protocol errors (%" PRIu64
                " chaff frames), %" PRIu64 " shard kills, %" PRIu64
                " restarts, %" PRIu64 " replays\n",
                R.Net.Net.ProtocolErrors, M.Junk.frames(),
                R.Net.Net.ShardKillFaults, R.Net.Net.ShardRestarts,
                R.Net.Net.ShardReplays);
  for (const std::string &F : R.CheckFailures)
    std::printf("  CHECK FAILED: %s\n", F.c_str());

  if (!R.A.Trace) {
    printJson(Correct, R.L.Attempted, Failed, E2E);
    return Correct ? 0 : 1;
  }

  const NetBooks &NB = R.Net.Net;
  Layer.insert(Layer.end(), Wall.begin(), Wall.end());
  Layer.push_back({"net.bytes_per_req",
                   NB.RequestsAdmitted
                       ? static_cast<double>(NB.BytesIn + NB.BytesOut) /
                             static_cast<double>(NB.RequestsAdmitted)
                       : 0.0,
                   "B"});
  Layer.push_back({"net.shard_replays", static_cast<double>(NB.ShardReplays),
                   "count"});
  Layer.push_back({"net.partial_io", static_cast<double>(NB.PartialIoFaults),
                   "count"});
  Layer.push_back({"setup.deploy_ms", SetupMedian(&SetupTimes::DeployMs), "ms"});
  Layer.push_back({"setup.server_ms", SetupMedian(&SetupTimes::ServerMs), "ms"});
  Layer.push_back(
      {"setup.first_resp_ms", SetupMedian(&SetupTimes::FirstRespMs), "ms"});
  Layer.push_back({"loadgen.late_p99_us",
                   M.SegLateP99.empty() ? percentile(M.LateUs, 0.99)
                                        : median(M.SegLateP99),
                   "us"});
  Layer.push_back({"security.attack_success_frac", AttackFrac, "ratio"});
  for (const Metric &Mt : Layer)
    std::printf("  %-30s %14.4f %s\n", Mt.Name.c_str(), Mt.Value, Mt.Unit);
  printJson(Correct, R.L.Attempted, Failed, Layer);
  return Correct ? 0 : 1;
}
