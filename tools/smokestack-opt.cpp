//===- tools/smokestack-opt.cpp - Command-line pass driver ----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// opt-style driver: read a textual Mini-IR module, apply defense passes,
/// print and/or execute the result.
///
///   smokestack-opt [options] <file.ir | ->
///     -smokestack            apply the Smokestack pass
///     -static-perm[=SEED]    apply compile-time permutation
///     -entry-pad[=SEED]      apply Forrest-style entry padding
///     -canary[=GUARD]        apply the stack protector
///     -run=FUNC              execute FUNC in the VM after the passes
///     -rng=SCHEME            pseudo | aes1 | aes10 | rdrand  (default aes10)
///     -resilient             wrap the RNG in the fallback chain
///                            (scheme -> AES-10 -> fail closed)
///     -faults=SEED:RATE      run under a seeded fault-injection plan that
///                            fails DRNG draws and rekey entropy at RATE
///     -input=TEXT            queue TEXT as one input record (repeatable)
///     -workers=N             serve -run through a WorkerPool of N
///                            interpreter threads (0 = all cores); implies
///                            the pool's deterministic per-request RNG
///                            chain, so -rng/-resilient are ignored
///     -requests=M            pool mode: number of requests to serve
///                            (default 1); every request queues the same
///                            -input records
///     -seed=S                pool mode: root seed for per-request
///                            randomness derivation (default 7)
///     -chaos=RATE            pool mode: inject contained worker crashes at
///                            RATE (and hard worker deaths at RATE/5) per
///                            attempt; crashed requests retry under a
///                            per-request attempt budget and quarantine on
///                            exhaustion. The exact accounting identity
///                            (submitted == completed + shed + poisoned)
///                            is verified; a violation exits nonzero.
///     -serve                 serve -run over loopback TCP through the
///                            epoll socket front-end (net/SocketServer.h)
///                            instead of submitting to the pool directly;
///                            an in-process client drives -requests=M
///                            requests through the wire as a self-test.
///                            SIGTERM requests a graceful stop: the server
///                            finishes what it can and drains
///     -shards=N              serve mode: number of WorkerPool shards
///                            behind the front-end (default 1); results
///                            are bit-identical at any shard count
///     -shard-mode=thread|process
///                            serve mode: run each shard as an in-process
///                            WorkerPool (thread, the default) or as a
///                            forked child process with crash containment
///                            and kill-and-replay (process); results are
///                            bit-identical in either mode
///     -drain-timeout=MS      serve mode: graceful-drain budget (default
///                            5000). If in-flight requests outlive it they
///                            are cancelled and poison-accounted, and the
///                            tool exits nonzero (exit code 4)
///     -fuel=N                VM step budget per request (default 2e8);
///                            mostly for tests that need a request to
///                            outlive the drain budget
///     -metrics=FILE          after -run: export every counter and latency
///                            histogram as Prometheus text to FILE and as
///                            smokestack-metrics-v1 JSON to FILE.json;
///                            enables obs timing (and, in pool mode,
///                            per-request span tracing), so latency
///                            histograms are populated
///     -print                 print the final module (default unless -run)
///     -verify                verify and report instead of printing
///     -stats                 without -run: print the stack-usage analysis;
///                            with -run: also print every nonzero counter
///                            (fault, degradation, VM bookkeeping) after
///                            execution
///
/// Example:
///   smokestack-opt -smokestack -run=main -rng=aes10 program.ir
///
//===----------------------------------------------------------------------===//

#include "core/SmokestackPass.h"
#include "core/StackUsageAnalysis.h"
#include "defenses/BaselineDefenses.h"
#include "faults/FaultInjector.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "jit/JitAbi.h"
#include "net/Client.h"
#include "net/SocketServer.h"
#include "obs/MetricsRegistry.h"
#include "obs/Trace.h"
#include "rng/AesCtr.h"
#include "rng/RdRand.h"
#include "rng/Resilient.h"
#include "runtime/WorkerPool.h"
#include "support/RawStream.h"
#include "support/Statistics.h"
#include "vm/Interpreter.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

using namespace smokestack;

namespace {

struct Options {
  std::vector<std::string> PassSpecs;
  std::string RunFunction;
  std::string RngScheme = "aes10";
  std::string Engine = "decoded";
  std::vector<std::string> Inputs;
  std::string InputFile;
  bool Print = false;
  bool Verify = false;
  bool Stats = false;
  bool Resilient = false;
  bool Faults = false;
  uint64_t FaultSeed = 0;
  double FaultRate = 0.0;
  bool Pool = false;
  unsigned Workers = 1;
  uint64_t PoolRequests = 1;
  uint64_t PoolSeed = 7;
  bool Chaos = false;
  double ChaosRate = 0.0;
  bool Serve = false;
  unsigned Shards = 1;
  ShardMode Mode = ShardMode::Thread;
  unsigned DrainTimeoutMillis = 5000;
  uint64_t Fuel = 0; ///< 0 = interpreter default.
  std::string MetricsFile;
};

/// The SIGTERM → requestStop() bridge for -serve. requestStop() is
/// async-signal-safe (an atomic store); the main thread sees
/// stopRequested() and performs the actual drain.
SocketServer *ServeInstance = nullptr;

void onSigTerm(int) {
  if (ServeInstance)
    ServeInstance->requestStop();
}

/// Writes \p Registry to \p Path (Prometheus text) and \p Path.json.
/// Returns false (with a diagnostic) when either write fails.
bool writeMetrics(const MetricsRegistry &Registry, const std::string &Path) {
  struct Target {
    std::string Path;
    std::string Content;
  } Targets[] = {{Path, Registry.exportText()},
                 {Path + ".json", Registry.exportJson()}};
  for (const Target &T : Targets) {
    std::ofstream Out(T.Path);
    Out << T.Content;
    if (!Out) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   T.Path.c_str());
      return false;
    }
  }
  std::printf("metrics: wrote %s and %s.json\n", Path.c_str(), Path.c_str());
  return true;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [-smokestack] [-static-perm[=SEED]] "
               "[-entry-pad[=SEED]] [-canary[=GUARD]]\n"
               "          [-run=FUNC] [-rng=pseudo|aes1|aes10|rdrand] "
               "[-engine=jit|decoded]\n"
               "          [-resilient] [-faults=SEED:RATE]\n"
               "          [-workers=N] [-requests=M] [-seed=S] "
               "[-chaos=RATE] [-metrics=FILE]\n"
               "          [-serve] [-shards=N] [-shard-mode=thread|process] "
               "[-drain-timeout=MS] [-fuel=N]\n"
               "          [-input=TEXT]... [-print] [-verify] [-stats] "
               "<file.ir|->\n",
               Argv0);
  return 2;
}

uint64_t specSeed(const std::string &Spec, uint64_t Default) {
  size_t Eq = Spec.find('=');
  if (Eq == std::string::npos)
    return Default;
  return std::strtoull(Spec.c_str() + Eq + 1, nullptr, 0);
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-smokestack" || Arg.rfind("-static-perm", 0) == 0 ||
        Arg.rfind("-entry-pad", 0) == 0 || Arg.rfind("-canary", 0) == 0) {
      Opts.PassSpecs.push_back(Arg);
    } else if (Arg.rfind("-run=", 0) == 0) {
      Opts.RunFunction = Arg.substr(5);
    } else if (Arg.rfind("-rng=", 0) == 0) {
      Opts.RngScheme = Arg.substr(5);
    } else if (Arg.rfind("-engine=", 0) == 0) {
      Opts.Engine = Arg.substr(8);
    } else if (Arg.rfind("-input=", 0) == 0) {
      Opts.Inputs.push_back(Arg.substr(7));
    } else if (Arg.rfind("-workers=", 0) == 0) {
      Opts.Pool = true;
      Opts.Workers =
          static_cast<unsigned>(std::strtoul(Arg.c_str() + 9, nullptr, 0));
    } else if (Arg.rfind("-requests=", 0) == 0) {
      Opts.PoolRequests = std::strtoull(Arg.c_str() + 10, nullptr, 0);
    } else if (Arg.rfind("-seed=", 0) == 0) {
      Opts.PoolSeed = std::strtoull(Arg.c_str() + 6, nullptr, 0);
    } else if (Arg.rfind("-chaos=", 0) == 0) {
      double Rate = std::strtod(Arg.c_str() + 7, nullptr);
      if (Rate < 0.0 || Rate > 1.0) {
        std::fprintf(stderr, "bad -chaos rate '%s' (want [0,1])\n",
                     Arg.c_str());
        return usage(argv[0]);
      }
      Opts.Chaos = true;
      Opts.ChaosRate = Rate;
    } else if (Arg == "-serve") {
      Opts.Serve = true;
    } else if (Arg.rfind("-shards=", 0) == 0) {
      Opts.Shards =
          static_cast<unsigned>(std::strtoul(Arg.c_str() + 8, nullptr, 0));
    } else if (Arg.rfind("-shard-mode=", 0) == 0) {
      std::string Mode = Arg.substr(12);
      if (Mode == "thread") {
        Opts.Mode = ShardMode::Thread;
      } else if (Mode == "process") {
        Opts.Mode = ShardMode::Process;
      } else {
        std::fprintf(stderr, "error: unknown -shard-mode=%s "
                             "(thread|process)\n",
                     Mode.c_str());
        return usage(argv[0]);
      }
    } else if (Arg.rfind("-drain-timeout=", 0) == 0 ||
               Arg.rfind("--drain-timeout=", 0) == 0) {
      Opts.DrainTimeoutMillis = static_cast<unsigned>(
          std::strtoul(Arg.c_str() + Arg.find('=') + 1, nullptr, 0));
    } else if (Arg.rfind("-fuel=", 0) == 0) {
      Opts.Fuel = std::strtoull(Arg.c_str() + 6, nullptr, 0);
    } else if (Arg == "-resilient") {
      Opts.Resilient = true;
    } else if (Arg.rfind("-faults=", 0) == 0) {
      unsigned long long Seed = 0;
      double Rate = 0.0;
      if (std::sscanf(Arg.c_str() + 8, "%llu:%lf", &Seed, &Rate) != 2 ||
          Rate < 0.0 || Rate > 1.0) {
        std::fprintf(stderr, "bad -faults spec '%s' (want SEED:RATE)\n",
                     Arg.c_str());
        return usage(argv[0]);
      }
      Opts.Faults = true;
      Opts.FaultSeed = Seed;
      Opts.FaultRate = Rate;
    } else if (Arg.rfind("-metrics=", 0) == 0) {
      Opts.MetricsFile = Arg.substr(9);
      if (Opts.MetricsFile.empty()) {
        std::fprintf(stderr, "bad -metrics spec (want -metrics=FILE)\n");
        return usage(argv[0]);
      }
    } else if (Arg == "-print") {
      Opts.Print = true;
    } else if (Arg == "-verify") {
      Opts.Verify = true;
    } else if (Arg == "-stats") {
      Opts.Stats = true;
    } else if (Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      return usage(argv[0]);
    } else {
      if (!Opts.InputFile.empty())
        return usage(argv[0]);
      Opts.InputFile = Arg;
    }
  }
  if (Opts.InputFile.empty())
    return usage(argv[0]);

  // Read the module text.
  std::string Text;
  if (Opts.InputFile == "-") {
    char Chunk[4096];
    size_t Got;
    while ((Got = std::fread(Chunk, 1, sizeof(Chunk), stdin)) > 0)
      Text.append(Chunk, Got);
  } else {
    std::ifstream In(Opts.InputFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   Opts.InputFile.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
  }

  ParseResult Parsed = parseModule(Text, Opts.InputFile);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.InputFile.c_str(),
                 Parsed.Error.c_str());
    return 1;
  }
  Module &M = *Parsed.M;

  std::vector<std::string> Errors;
  if (!verifyModule(M, &Errors)) {
    std::fprintf(stderr, "error: input module does not verify:\n");
    for (const std::string &E : Errors)
      std::fprintf(stderr, "  %s\n", E.c_str());
    return 1;
  }

  // Apply the requested passes in order.
  PassManager PM;
  std::vector<const SmokestackPass *> Hardeners;
  for (const std::string &Spec : Opts.PassSpecs) {
    if (Spec == "-smokestack") {
      auto Pass = std::make_unique<SmokestackPass>();
      Hardeners.push_back(Pass.get());
      PM.addPass(std::move(Pass));
    } else if (Spec.rfind("-static-perm", 0) == 0)
      PM.addPass(std::make_unique<StaticPermutationPass>(specSeed(Spec, 1)));
    else if (Spec.rfind("-entry-pad", 0) == 0)
      PM.addPass(std::make_unique<EntryPaddingPass>(specSeed(Spec, 1)));
    else if (Spec.rfind("-canary", 0) == 0)
      PM.addPass(std::make_unique<StackCanaryPass>(
          specSeed(Spec, 0x00ff1234cafe0000ULL)));
  }
  if (PM.size())
    PM.run(M);
  if (Opts.Stats && !Hardeners.empty()) {
    // A frame the P-BOX's 32-bit offsets cannot describe is diagnosed and
    // skipped by the pass, never miscompiled; say how many were.
    unsigned Skipped = 0;
    for (const SmokestackPass *Pass : Hardeners)
      Skipped += Pass->framesTooLarge();
    std::printf("smokestack: %u frame(s) left unhardened (worst-case frame "
                ">= 2^32 bytes)\n",
                Skipped);
    std::fflush(stdout);
  }

  if (Opts.Stats && Opts.RunFunction.empty()) {
    RawFdOStream OS(stdout);
    printStackUsage(analyzeModuleStackUsage(M), OS);
    return 0;
  }

  if (Opts.Verify) {
    Errors.clear();
    bool Ok = verifyModule(M, &Errors);
    std::printf("%s\n", Ok ? "module verifies" : "module INVALID");
    for (const std::string &E : Errors)
      std::printf("  %s\n", E.c_str());
    return Ok ? 0 : 1;
  }

  if (!Opts.RunFunction.empty()) {
    if (Opts.Engine != "jit" && Opts.Engine != "decoded") {
      std::fprintf(stderr, "error: unknown engine '%s'\n", Opts.Engine.c_str());
      return 1;
    }
    if (Opts.Engine == "jit" && !jitAvailable()) {
      std::fprintf(stderr, "warning: JIT unavailable on this host; "
                           "falling back to the decoded engine\n");
      Opts.Engine = "decoded";
    }

    InterpreterOptions VMOpts;
    VMOpts.UseJit = Opts.Engine == "jit";
    if (Opts.Fuel)
      VMOpts.Fuel = Opts.Fuel;

    // -metrics wants the latency histograms populated, so turn on the
    // process-wide timing probes before anything serves.
    if (!Opts.MetricsFile.empty())
      enableObsTiming();

    if (Opts.Pool || Opts.Serve) {
      // Every pool and wire request calls the entry point with no
      // arguments, so an entry point that cannot take that call would
      // only serve bad-call traps: refuse it before anything starts.
      std::string Why;
      if (!findEntryPoint(M, Opts.RunFunction, 0, Why)) {
        std::fprintf(stderr,
                     "error: -run=%s: %s; -workers/-serve call a "
                     "zero-argument entry point\n",
                     Opts.RunFunction.c_str(), Why.c_str());
        return 1;
      }

      // Pool mode: the WorkerPool owns per-request deterministic RNG
      // chains and per-request fault injectors, so -rng/-resilient (and
      // the -faults seed) are superseded by -seed.
      PoolOptions PO;
      PO.Workers = Opts.Workers;
      PO.RootSeed = Opts.PoolSeed;
      PO.Function = Opts.RunFunction;
      PO.InterpOpts = VMOpts;
      if (Opts.Faults) {
        PO.InjectFaults = true;
        PO.FaultTemplate.site(FaultSite::RdRandStep) = {
            Opts.FaultRate, RdRandSource::RetryLimit, 0};
        PO.FaultTemplate.site(FaultSite::RekeyEntropy) = {Opts.FaultRate, 1,
                                                          0};
        PO.FaultTemplate.site(FaultSite::AesNiPresence) = {
            Opts.FaultRate / 4, 1, 0};
      }
      if (Opts.Chaos) {
        PO.InjectFaults = true;
        PO.FaultTemplate.site(FaultSite::WorkerCrash) = {Opts.ChaosRate, 1,
                                                         0};
        PO.FaultTemplate.site(FaultSite::WorkerDeath) = {
            Opts.ChaosRate / 5, 1, 0};
        PO.Supervision.AttemptsMin = 2;
        PO.Supervision.AttemptsMax = 4;
      }

      std::vector<std::vector<uint8_t>> Records;
      for (const std::string &Input : Opts.Inputs)
        Records.emplace_back(Input.begin(), Input.end());

      TraceRecorder Recorder;
      if (!Opts.MetricsFile.empty())
        PO.Tracer = &Recorder;

      if (Opts.Serve) {
        // Serve mode: the identical pool configuration behind the epoll
        // socket front-end, self-tested by an in-process loopback client
        // pipelining the same requests through the wire protocol.
        ServerOptions SO;
        SO.Shards = Opts.Shards ? Opts.Shards : 1;
        SO.Mode = Opts.Mode;
        SO.DrainTimeoutMillis = Opts.DrainTimeoutMillis;
        SO.Pool = PO;
        // Before any socket write: SIGPIPE must be an errno.
        installServerSignalDefaults();
        SocketServer Server(M, SO);
        ServeInstance = &Server;
        std::signal(SIGTERM, onSigTerm);
        std::string Err;
        if (!Server.start(&Err)) {
          std::fprintf(stderr, "error: -serve: %s\n", Err.c_str());
          return 1;
        }
        std::printf("serve: listening on 127.0.0.1:%u (%u shards)\n",
                    Server.port(), SO.Shards);

        BlockingClient Client;
        uint64_t Sent = 0, Answered = 0, Ok = 0, Trapped = 0, Other = 0;
        bool Stalled = false;
        if (!Client.connectTo(Server.port(), &Err)) {
          std::fprintf(stderr, "error: -serve self-connect: %s\n",
                       Err.c_str());
          Stalled = true;
        }
        constexpr uint64_t Window = 16;
        while (!Stalled && Answered != Opts.PoolRequests &&
               !Server.stopRequested()) {
          while (Sent != Opts.PoolRequests && Sent - Answered < Window) {
            WireRequest Req;
            Req.Index = Sent;
            Req.Inputs = Records;
            if (!Client.sendRequest(Req)) {
              Stalled = true;
              break;
            }
            ++Sent;
          }
          if (Stalled)
            break;
          WireResponse Resp;
          if (!Client.recvResponse(Resp, /*TimeoutMillis=*/2000)) {
            // A request that never answers lands here; the drain below
            // decides whether that is a timeout worth a nonzero exit.
            Stalled = true;
            break;
          }
          ++Answered;
          if (Resp.Status == WireStatus::Ok)
            ++Ok;
          else if (Resp.Status == WireStatus::Trapped)
            ++Trapped;
          else
            ++Other;
        }

        DrainReport Rep = Server.drain();
        std::signal(SIGTERM, SIG_DFL);
        ServeInstance = nullptr;

        std::printf("serve: %u shards, %llu sent, %llu answered, %llu ok, "
                    "%llu trapped, %llu other, %llu delivered\n",
                    SO.Shards, (unsigned long long)Sent,
                    (unsigned long long)Answered, (unsigned long long)Ok,
                    (unsigned long long)Trapped, (unsigned long long)Other,
                    (unsigned long long)Rep.Net.ResponsesDelivered);
        if (!Opts.MetricsFile.empty()) {
          MetricsRegistry Registry;
          Rep.Pool.exportMetrics(Registry);
          Rep.Net.exportMetrics(Registry);
          Recorder.exportMetrics(Registry);
          if (!writeMetrics(Registry, Opts.MetricsFile))
            return 1;
        }
        if (!Rep.IdentityOk) {
          std::fprintf(stderr,
                       "error: wire accounting identity violated\n");
          return 3;
        }
        if (!Rep.Clean) {
          std::fprintf(stderr,
                       "drain: TIMEOUT after %u ms; %llu in-flight "
                       "request(s) poisoned\n",
                       Opts.DrainTimeoutMillis,
                       (unsigned long long)Rep.Pool.Poisoned);
          return 4;
        }
        return Trapped == 0 && Other == 0 && !Stalled ? 0 : 1;
      }

      WorkerPool Pool(M, PO);
      Pool.start();
      for (uint64_t I = 0; I != Opts.PoolRequests; ++I)
        Pool.submit({I, Records});
      std::vector<PoolOutcome> Outcomes = Pool.finish();

      uint64_t Ok = 0, Trapped = 0;
      for (const PoolOutcome &O : Outcomes)
        O.ok() ? ++Ok : ++Trapped;
      const PoolBooks &B = Pool.books();
      std::printf("pool: %u workers, %llu requests, %llu ok, %llu trapped\n",
                  Pool.workerCount(),
                  (unsigned long long)Outcomes.size(),
                  (unsigned long long)Ok, (unsigned long long)Trapped);
      if (Opts.Chaos)
        std::printf("supervision: %llu crashes contained, %llu deaths, "
                    "%llu restarts, %llu retries, %llu poisoned\n",
                    (unsigned long long)B.CrashesContained,
                    (unsigned long long)B.WorkerDeaths,
                    (unsigned long long)B.WorkerRestarts,
                    (unsigned long long)B.Retries,
                    (unsigned long long)B.Poisoned);
      if (!B.accountingIdentityHolds()) {
        std::fprintf(stderr,
                     "error: accounting identity violated: submitted %llu != "
                     "completed %llu + shed %llu + poisoned %llu\n",
                     (unsigned long long)B.Submitted,
                     (unsigned long long)B.Completed,
                     (unsigned long long)B.Shed,
                     (unsigned long long)B.Poisoned);
        return 3;
      }
      if (!Outcomes.empty() && Outcomes.front().ok())
        std::printf("-> %lld (after %llu steps)\n",
                    (long long)(int64_t)Outcomes.front().ReturnValue,
                    (unsigned long long)Outcomes.front().Steps);
      if (Opts.Stats) {
        std::printf("counters:\n");
        for (const Statistic *S : allStatistics())
          if (S->value() != 0)
            std::printf("  %10llu %-28s %s\n",
                        (unsigned long long)S->value(), S->name(),
                        S->description());
        std::printf("rng: pool chain (%llu draws, %llu degraded, "
                    "%llu fail-closed)\n",
                    (unsigned long long)B.Rng.DrawsServed,
                    (unsigned long long)B.Rng.DegradedDraws,
                    (unsigned long long)B.Rng.FailClosedDraws);
        if (Opts.Faults)
          std::printf("faults: %llu injected, %llu events\n",
                      (unsigned long long)B.totalInjectedProbes(),
                      (unsigned long long)B.totalInjectedEvents());
      }
      if (!Opts.MetricsFile.empty()) {
        MetricsRegistry Registry;
        B.exportMetrics(Registry);
        Recorder.exportMetrics(Registry);
        if (!writeMetrics(Registry, Opts.MetricsFile))
          return 1;
      }
      return Trapped == 0 ? 0 : 1;
    }

    // The fault scope must cover RNG construction too: a plan that kills
    // rekey entropy from probe one must be able to hit the initial keying.
    FaultPlan Plan;
    Plan.Seed = Opts.FaultSeed;
    if (Opts.Faults) {
      Plan.site(FaultSite::RdRandStep) = {Opts.FaultRate,
                                          RdRandSource::RetryLimit, 0};
      Plan.site(FaultSite::RekeyEntropy) = {Opts.FaultRate, 1, 0};
      Plan.site(FaultSite::AesNiPresence) = {Opts.FaultRate / 4, 1, 0};
    }
    FaultInjector Injector(Plan);
    std::unique_ptr<FaultScope> Scope;
    if (Opts.Faults)
      Scope = std::make_unique<FaultScope>(Injector);

    SystemEntropySource Entropy;
    std::unique_ptr<RandomSource> Rng =
        makeRandomSource(Opts.RngScheme, Entropy);
    if (!Rng) {
      std::fprintf(stderr, "error: unknown rng scheme '%s'\n",
                   Opts.RngScheme.c_str());
      return 1;
    }
    std::unique_ptr<RandomSource> Fallback;
    std::unique_ptr<ResilientRandomSource> Resilient;
    RandomSource *Active = Rng.get();
    RandomSource *ChainStorage[2];
    if (Opts.Resilient) {
      Fallback = std::make_unique<AesCtrRandomSource>(Entropy, 10);
      ChainStorage[0] = Rng.get();
      ChainStorage[1] = Fallback.get();
      Resilient = std::make_unique<ResilientRandomSource>(
          std::span<RandomSource *const>(ChainStorage, 2));
      Active = Resilient.get();
    }

    Interpreter VM(M, Active, VMOpts);
    for (const std::string &Input : Opts.Inputs)
      VM.pushInputString(Input);
    ExecResult R = VM.run(Opts.RunFunction);
    if (!VM.output().empty())
      std::fputs(VM.output().c_str(), stdout);

    int Exit = 0;
    if (!R.ok()) {
      std::fprintf(stderr, "trap: %s (%s)\n", trapKindName(R.Trap),
                   R.Message.c_str());
      Exit = 1;
    } else {
      std::printf("-> %lld (after %llu steps)\n",
                  (long long)(int64_t)R.ReturnValue,
                  (unsigned long long)R.Steps);
    }
    if (Opts.Stats) {
      std::printf("counters:\n");
      for (const Statistic *S : allStatistics())
        if (S->value() != 0)
          std::printf("  %10llu %-28s %s\n", (unsigned long long)S->value(),
                      S->name(), S->description());
      if (Resilient)
        std::printf("rng: %s (%llu draws, %llu degraded, %llu fail-closed)\n",
                    Resilient->name(),
                    (unsigned long long)Resilient->drawsServed(),
                    (unsigned long long)Resilient->degradedDraws(),
                    (unsigned long long)Resilient->failClosedDraws());
      if (Opts.Faults) {
        uint64_t Probes = 0;
        for (unsigned S = 0; S != NumFaultSites; ++S)
          Probes += Injector.probeCount(static_cast<FaultSite>(S));
        std::printf("faults: %llu probes, %llu injected, %llu events\n",
                    (unsigned long long)Probes,
                    (unsigned long long)Injector.totalInjectedProbes(),
                    (unsigned long long)Injector.totalInjectedEvents());
      }
    }
    if (!Opts.MetricsFile.empty()) {
      MetricsRegistry Registry;
      if (!writeMetrics(Registry, Opts.MetricsFile))
        return 1;
    }
    return Exit;
  }

  // Default action: print.
  RawFdOStream OS(stdout);
  M.print(OS);
  return 0;
}
