//===- perfbench/Scenario.cpp - Served modules and their options ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs the workloads serve and the pool/server configuration each
/// one runs under:
///
///  - wire, chaos: the soak's Listing-1 server module (driver() holds the
///    gadget dispatcher, vuln() the overflowable buffer), hardened with
///    deployDefense(Smokestack); every eighth request carries a stale-layout
///    overflow record disclosed from one probe run.
///  - calls: a call-heavy kernel, main() calling a three-alloca leaf()
///    KernelCalls times per request, on the JIT.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "attacks/Attacker.h"
#include "attacks/Scenarios.h"
#include "defenses/Deploy.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "obs/Trace.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "rng/RdRand.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>

namespace perfbench {

void die(const char *Fmt, ...) {
  std::fflush(stdout);
  std::fputs("perfbench: ", stderr);
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fputc('\n', stderr);
  std::exit(2);
}

uint64_t nowNs() { return obsNowNanos(); }

uint64_t threadCpuNs() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

double percentile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[Rank == 0 ? 0 : Rank - 1];
}

unsigned callsPerRequest(Kind K) {
  return K == Kind::Calls ? KernelCalls + 1 : 9;
}

namespace {

/// The soak's server module, as text: the same frames (gadget state plus
/// five unrelated locals in driver(), a 64-byte buffer under two locals in
/// vuln()) and the same eight-round dispatcher. A benign request returns 13.
constexpr const char *ServerIR = R"(
declare i64 @get_input(ptr)

define void @vuln() {
entry:
  %vlocal = alloca i64, align 8
  %vtmp = alloca [24 x i8], align 1
  %buff = alloca [64 x i8], align 1
  store i64 0, ptr %vlocal
  store i8 0, ptr %vtmp
  %n = call i64 @get_input(ptr %buff)
  ret
}

define i64 @driver() {
entry:
  %ctr = alloca i64, align 8
  %op = alloca i64, align 8
  %step = alloca i64, align 8
  %acc = alloca i64, align 8
  %f1 = alloca [24 x i8], align 1
  %f2 = alloca i32, align 4
  %f3 = alloca i64, align 8
  %f4 = alloca [16 x i8], align 1
  %f5 = alloca i16, align 2
  store i64 0, ptr %ctr
  store i64 0, ptr %op
  store i64 1, ptr %step
  store i64 5, ptr %acc
  store i8 0, ptr %f1
  store i32 0, ptr %f2
  store i64 0, ptr %f3
  store i8 0, ptr %f4
  store i16 0, ptr %f5
  br label %loop
loop:
  %c = load i64, ptr %ctr
  %more = icmp slt i64 %c, i64 8
  br i8 %more, label %body, label %exit
body:
  call void @vuln()
  %o = load i64, ptr %op
  %isadd = icmp eq i64 %o, i64 0
  br i8 %isadd, label %g_add, label %chk1
chk1:
  %issub = icmp eq i64 %o, i64 1
  br i8 %issub, label %g_sub, label %g_set
g_add:
  %a0 = load i64, ptr %acc
  %s0 = load i64, ptr %step
  %r0 = add i64 %a0, i64 %s0
  store i64 %r0, ptr %acc
  br label %latch
g_sub:
  %a1 = load i64, ptr %acc
  %s1 = load i64, ptr %step
  %r1 = sub i64 %a1, i64 %s1
  store i64 %r1, ptr %acc
  br label %latch
g_set:
  store i64 %o, ptr %step
  br label %latch
latch:
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %ctr
  br label %loop
exit:
  %res = load i64, ptr %acc
  ret i64 %res
}
)";

/// The call kernel: acc = leaf(acc) ^ i, KernelCalls times.
std::string kernelIR() {
  return R"(
define i64 @leaf(i64 %x) {
entry:
  %a = alloca i64, align 8
  %b = alloca [16 x i8], align 1
  %c = alloca i32, align 4
  store i64 %x, ptr %a
  store i8 1, ptr %b
  store i32 2, ptr %c
  %v = load i64, ptr %a
  %w = add i64 %v, i64 3
  ret i64 %w
}

define i64 @main() {
entry:
  %i = alloca i64, align 8
  %acc = alloca i64, align 8
  store i64 0, ptr %i
  store i64 1, ptr %acc
  br label %loop
loop:
  %c = load i64, ptr %i
  %more = icmp slt i64 %c, i64 )" +
         std::to_string(KernelCalls) + R"(
  br i8 %more, label %body, label %exit
body:
  %a0 = load i64, ptr %acc
  %r = call i64 @leaf(i64 %a0)
  %x = xor i64 %r, i64 %c
  store i64 %x, ptr %acc
  %c1 = add i64 %c, i64 1
  store i64 %c1, ptr %i
  br label %loop
exit:
  %res = load i64, ptr %acc
  ret i64 %res
}
)";
}

std::unique_ptr<Module> parse(Kind K) {
  ParseResult R = parseModule(K == Kind::Calls ? kernelIR() : ServerIR,
                              K == Kind::Calls ? "calls" : "server");
  if (!R.ok())
    die("module does not parse: %s", R.Error.c_str());
  return std::move(R.M);
}

/// The soak's stale-disclosure payload: plant acc = DirectDopTarget, op = 5
/// (the set-step gadget, which leaves acc alone) and ctr = 7 at the offsets
/// the probe run disclosed. Valid for that layout, stale for every later
/// invocation.
std::optional<std::vector<uint8_t>> disclose(Module &M,
                                             const InterpreterOptions &IO,
                                             uint64_t BuildSeed) {
  LayoutOracle Oracle(/*KeepFirst=*/true);
  DeterministicEntropySource Entropy(BuildSeed ^ 0x9e3779b97f4a7c15ULL);
  AesCtrRandomSource Rng(Entropy, /*NumRounds=*/10);
  {
    Interpreter Probe(M, &Rng, IO);
    Probe.setLayoutObserver(&Oracle);
    Probe.run("driver");
  }
  for (const char *Var : {"ctr", "op", "step", "acc"})
    if (!Oracle.knows("driver", Var))
      return std::nullopt;
  if (!Oracle.knows("vuln", "buff"))
    return std::nullopt;
  auto Delta = [&](const char *Var) {
    return static_cast<int64_t>(Oracle.addressOf("driver", Var)) -
           static_cast<int64_t>(Oracle.addressOf("vuln", "buff"));
  };
  for (const char *Var : {"ctr", "op", "step", "acc"})
    if (Delta(Var) <= 0)
      return std::nullopt;
  Payload P(0);
  P.pokeInt(static_cast<size_t>(Delta("acc")), DirectDopTarget);
  P.pokeInt(static_cast<size_t>(Delta("step")), 1);
  P.pokeInt(static_cast<size_t>(Delta("op")), 5);
  P.pokeInt(static_cast<size_t>(Delta("ctr")), 7);
  return P.bytes();
}

} // namespace

uint64_t prepareAttack(Kind K, uint64_t Seed, std::vector<uint8_t> &Stale) {
  if (K == Kind::Calls)
    return Seed;
  for (uint64_t Try = 0; Try != 64; ++Try) {
    uint64_t BuildSeed = Seed + Try * 0x9e3779b97f4a7c15ULL;
    Variant V = buildVariant(K, /*Harden=*/true, BuildSeed, {});
    if (auto P = disclose(*V.M, V.Interp, BuildSeed)) {
      Stale = std::move(*P);
      return BuildSeed;
    }
  }
  die("no build seed derived from %" PRIu64 " offers a stale payload", Seed);
}

Variant buildVariant(Kind K, bool Harden, uint64_t BuildSeed,
                     const std::vector<uint8_t> &Stale) {
  Variant V;
  V.M = parse(K);
  DeployedDefense D = deployDefense(
      *V.M, Harden ? DefenseKind::Smokestack : DefenseKind::None, BuildSeed);
  V.Interp = D.InterpOpts;
  V.Interp.UseJit = K == Kind::Calls;
  if (Harden)
    V.Stale = Stale;
  return V;
}

PoolOptions poolOptions(Kind K, uint64_t Seed, const Variant &V) {
  PoolOptions PO;
  PO.Workers = 1;
  PO.RootSeed = Seed;
  // Deep enough that a shard never sheds at the benchmark's load, even
  // when the host deschedules a worker for tens of milliseconds.
  PO.QueueCapacity = 4096;
  PO.Function = K == Kind::Calls ? "main" : "driver";
  PO.InterpOpts = V.Interp;
  if (K != Kind::Chaos)
    return PO;
  // The soak's chaos campaign: RNG faults, contained crashes on ~1% of
  // attempts, hard worker deaths on ~0.2%, and a scripted poison request
  // every 997th index that crashes on every attempt until quarantined.
  PO.InjectFaults = true;
  PO.FaultTemplate.site(FaultSite::RdRandStep) = {0.08, RdRandSource::RetryLimit,
                                                  0};
  PO.FaultTemplate.site(FaultSite::RekeyEntropy) = {0.25, 1, 0};
  PO.FaultTemplate.site(FaultSite::AesNiPresence) = {0.02, 1, 0};
  PO.FaultTemplate.site(FaultSite::WorkerCrash) = {0.01, 1, 0};
  PO.FaultTemplate.site(FaultSite::WorkerDeath) = {0.002, 1, 0};
  PO.Supervision.AttemptsMin = 2;
  PO.Supervision.AttemptsMax = 4;
  PO.PlanForRequest = [](uint64_t Index, FaultPlan &Plan) {
    if (Index % 997 == 400)
      Plan.site(FaultSite::WorkerCrash) = {0.0, 1, 1};
  };
  return PO;
}

ServerOptions serverOptions(Kind K, uint64_t Seed, const PoolOptions &PO) {
  ServerOptions SO;
  SO.Pool = PO;
  SO.Shards = K == Kind::Calls ? 1 : 2;
  if (K != Kind::Chaos)
    return SO;
  // Process shards, socket-layer faults, and seeded shard SIGKILLs (probed
  // once per admitted request) on top of the pool campaign.
  SO.Mode = ShardMode::Process;
  SO.InjectNetFaults = true;
  SO.NetFaultPlan.Seed = Seed ^ 0x4e455431;
  SO.NetFaultPlan.site(FaultSite::AcceptFailure) = {0.05, 1, 0};
  SO.NetFaultPlan.site(FaultSite::NetPartialIo) = {0.01, 1, 0};
  SO.NetFaultPlan.site(FaultSite::ClientStall) = {0.01, 1, 0};
  SO.NetFaultPlan.site(FaultSite::ShardKill) = {0.00002, 1, 0};
  SO.NetFaultPlan.site(FaultSite::ShardIpcIo) = {0.01, 1, 0};
  return SO;
}

PoolRequest poolRequest(const Variant &V, uint64_t Index) {
  PoolRequest R;
  R.Index = Index;
  if (isAttack(V, Index))
    R.Inputs.push_back(V.Stale);
  return R;
}

WireRequest wireRequest(const Variant &V, uint64_t Index) {
  WireRequest R;
  R.Index = Index;
  if (isAttack(V, Index))
    R.Inputs.push_back(V.Stale);
  return R;
}

void bookResponse(const WireResponse &R, Stream &S, Ledger &L) {
  bool Served = R.Status == WireStatus::Ok || R.Status == WireStatus::Trapped ||
                R.Status == WireStatus::Poisoned;
  if (!Served || (R.Flags & RespFlagDeadlineMissed)) {
    ++L.Failed;
    return;
  }
  PoolOutcome O;
  O.Index = R.Index;
  O.Trap = R.Trap;
  O.ReturnValue = R.ReturnValue;
  O.Steps = R.Steps;
  O.Attempts = R.Attempts;
  O.Poisoned = R.Status == WireStatus::Poisoned;
  S.Observed.push_back(O);
}

} // namespace perfbench
