//===- bench/interp_throughput.cpp - Decoded vs JIT throughput ------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures Mini-IR interpreter throughput (executed instructions per
/// second) for the pre-decoded engine and the copy-and-patch JIT, on four
/// SPEC-shaped kernels mirroring the workload models used elsewhere in the
/// reproduction (perlbench-like hashing, bzip2-like byte frequencies,
/// mcf-like min scans, gcc-like mixed control flow).
///
/// Both engines run the same module object; the decoded engine pays its
/// one-time decode — and the JIT its decode+compile — on the warmup run,
/// which is exactly the deployment model (translate per function, execute
/// per invocation). Every kernel's (Steps, ReturnValue) pair is digested
/// per engine and the digests must agree exactly; any divergence is a
/// correctness bug and exits nonzero. Results are written as JSON only to
/// the paths given: argv[1] gets per-kernel steps/sec (BENCH_interp.json's
/// schema, gated in CI against the committed baseline), argv[2] the
/// JIT-vs-decoded identity digests and speedups (BENCH_interp_jit.json's,
/// gated in CI at >= 2x).
///
/// The call kernels ask the paper's Fig. 3 question of the VM itself: a
/// 2000-call three-alloca leaf, plain and Smokestack-hardened (one kernel
/// per RNG scheme), timed on the decoded engine and the JIT. They land in
/// BENCH_interp_jit.json's call_kernels array with per-engine
/// hardened/plain overheads; the gate demands decoded == JIT digests and
/// >= 3x JIT-over-decoded on every hardened kernel with a seeded RNG. The
/// bare-scheme kernels bind the scheme's source directly; the chain kernel
/// draws from a RequestRng configured like a pool worker's (simulated
/// RDRAND, AES-CTR fallback, fail-closed decorator), the source the served
/// path uses. On hosts with RDRAND an RDRAND kernel runs too: its draws
/// cannot be seeded, so its digest leaves the RNG stream out and it is
/// gated on digest identity alone.
///
/// On hosts without jitAvailable() the JIT is skipped and
/// BENCH_interp_jit.json records jit_available=false.
///
//===----------------------------------------------------------------------===//

#include "core/SmokestackPass.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "jit/JitAbi.h"
#include "rng/Entropy.h"
#include "rng/RandomSource.h"
#include "rng/RdRand.h"
#include "runtime/RequestRng.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace smokestack;

namespace {

/// perlbench-like: FNV-1a folding of a 32-word buffer, rehashed 4000 times.
void buildHashKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *InnerBody = F->createBlock("inner.body");
  BasicBlock *OuterLatch = F->createBlock("outer.latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i64(), 32), "buf");
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *J = B.alloca_(B.i64(), "j");
  for (int K = 0; K != 32; ++K)
    B.store(B.constI64(0x9E3779B97F4A7C15ULL * (K + 1)),
            B.gepConst(Buf, 8 * K));
  B.store(B.constI64(1469598103934665603ULL), Acc);
  B.store(B.constI64(0), I);
  B.br(Outer);

  B.setInsertPoint(Outer);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), I),
                  B.constI64(4000)),
           Inner, Exit);

  B.setInsertPoint(Inner);
  B.store(B.constI64(0), J);
  B.br(InnerBody);

  B.setInsertPoint(InnerBody);
  Value *JV = B.load(B.i64(), J);
  Value *Word = B.load(B.i64(), B.gep(Buf, JV, 8));
  Value *Hash = B.mul(B.xor_(B.load(B.i64(), Acc), Word),
                      B.constI64(1099511628211ULL));
  B.store(Hash, Acc);
  Value *JNext = B.add(JV, B.constI64(1));
  B.store(JNext, J);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, JNext, B.constI64(32)), InnerBody,
           OuterLatch);

  B.setInsertPoint(OuterLatch);
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Outer);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// bzip2-like: byte-frequency counting over a 256-byte block, 1500 passes.
void buildFreqKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *InnerBody = F->createBlock("inner.body");
  BasicBlock *OuterLatch = F->createBlock("outer.latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Block = B.alloca_(B.getContext().getArrayTy(B.i8(), 256), "blk");
  AllocaInst *Freq =
      B.alloca_(B.getContext().getArrayTy(B.i64(), 256), "freq");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *J = B.alloca_(B.i64(), "j");
  for (int K = 0; K != 256; ++K) {
    B.store(B.constI8((K * 67 + 13) & 0xFF), B.gepConst(Block, K));
    B.store(B.constI64(0), B.gepConst(Freq, 8 * K));
  }
  B.store(B.constI64(0), I);
  B.br(Outer);

  B.setInsertPoint(Outer);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), I),
                  B.constI64(1500)),
           Inner, Exit);

  B.setInsertPoint(Inner);
  B.store(B.constI64(0), J);
  B.br(InnerBody);

  B.setInsertPoint(InnerBody);
  Value *JV = B.load(B.i64(), J);
  Value *Byte = B.zext(B.i64(), B.load(B.i8(), B.gep(Block, JV, 1)));
  Value *Slot = B.gep(Freq, Byte, 8);
  B.store(B.add(B.load(B.i64(), Slot), B.constI64(1)), Slot);
  Value *JNext = B.add(JV, B.constI64(1));
  B.store(JNext, J);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, JNext, B.constI64(256)),
           InnerBody, OuterLatch);

  B.setInsertPoint(OuterLatch);
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Outer);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), B.gepConst(Freq, 8 * 42)));
}

/// mcf-like: repeated minimum-cost scans of a 128-entry arc table with
/// compare/select chains.
void buildMinScanKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *InnerBody = F->createBlock("inner.body");
  BasicBlock *OuterLatch = F->createBlock("outer.latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Costs =
      B.alloca_(B.getContext().getArrayTy(B.i64(), 128), "costs");
  AllocaInst *Best = B.alloca_(B.i64(), "best");
  AllocaInst *Sum = B.alloca_(B.i64(), "sum");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *J = B.alloca_(B.i64(), "j");
  for (int K = 0; K != 128; ++K)
    B.store(B.constI64((K * 2654435761ULL) % 100000 + 1),
            B.gepConst(Costs, 8 * K));
  B.store(B.constI64(0), Sum);
  B.store(B.constI64(0), I);
  B.br(Outer);

  B.setInsertPoint(Outer);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), I),
                  B.constI64(2500)),
           Inner, Exit);

  B.setInsertPoint(Inner);
  B.store(B.constI64(~0ULL), Best);
  B.store(B.constI64(0), J);
  B.br(InnerBody);

  B.setInsertPoint(InnerBody);
  Value *JV = B.load(B.i64(), J);
  Value *Cost = B.load(B.i64(), B.gep(Costs, JV, 8));
  Value *BestV = B.load(B.i64(), Best);
  Value *Less = B.icmp(ICmpInst::Predicate::ULT, Cost, BestV);
  B.store(B.select(Less, Cost, BestV), Best);
  Value *JNext = B.add(JV, B.constI64(1));
  B.store(JNext, J);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, JNext, B.constI64(128)),
           InnerBody, OuterLatch);

  B.setInsertPoint(OuterLatch);
  B.store(B.add(B.load(B.i64(), Sum), B.load(B.i64(), Best)), Sum);
  // Rotate the table so scans do not trivially repeat.
  Value *First = B.load(B.i64(), B.gepConst(Costs, 0));
  B.store(B.add(First, B.constI64(7919)), B.gepConst(Costs, 0));
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Outer);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Sum));
}

/// gcc-like: worklist loop with data-dependent branching and mixed ALU ops.
void buildWorklistKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Even = F->createBlock("even");
  BasicBlock *Odd = F->createBlock("odd");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *State = B.alloca_(B.i64(), "state");
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  B.store(B.constI64(0x243F6A8885A308D3ULL), State);
  B.store(B.constI64(0), Acc);
  B.store(B.constI64(0), I);
  B.br(Loop);

  B.setInsertPoint(Loop);
  Value *S = B.load(B.i64(), State);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, B.and_(S, B.constI64(1)),
                  B.constI64(0)),
           Even, Odd);

  B.setInsertPoint(Even);
  B.store(B.add(B.load(B.i64(), Acc), B.lshr(B.load(B.i64(), State),
                                             B.constI64(3))),
          Acc);
  B.store(B.xor_(B.load(B.i64(), State), B.constI64(0x5DEECE66DULL)), State);
  B.br(Latch);

  B.setInsertPoint(Odd);
  B.store(B.xor_(B.load(B.i64(), Acc),
                 B.mul(B.load(B.i64(), State), B.constI64(6364136223846793005ULL))),
          Acc);
  B.store(B.add(B.shl(B.load(B.i64(), State), B.constI64(1)),
                B.constI64(0xB5ULL)),
          State);
  B.br(Latch);

  B.setInsertPoint(Latch);
  Value *INext = B.add(B.load(B.i64(), I), B.constI64(1));
  B.store(INext, I);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, INext, B.constI64(150000)), Loop,
           Exit);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// The VM's Fig. 3 kernel: main() folds leaf(acc) ^ i over 2000 calls of a
/// leaf with three allocas — the shape Smokestack relayouts on every call.
constexpr const char *CallKernelIR = R"(
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
  %more = icmp slt i64 %c, i64 2000
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

constexpr uint64_t CallKernelCalls = 2000;

/// One call-kernel variant: plain (Rng empty) or hardened with \p Rng.
struct CallKernelSpec {
  const char *Name;
  /// "" (plain), a makeRandomSource scheme ("pseudo", "aes1", "aes10",
  /// "rdrand"), or "chain" for a pool worker's RequestRng.
  const char *Rng;
  /// False for hardware randomness: the digest then covers the result
  /// pair only, not the source's next draw.
  bool Seeded = true;
};

/// The call kernels this host can run: the RDRAND one only with RDRAND.
std::vector<CallKernelSpec> callKernels() {
  std::vector<CallKernelSpec> Specs = {
      {"calls.leaf3.plain", ""},
      {"calls.leaf3.smokestack_pseudo", "pseudo"},
      {"calls.leaf3.smokestack_aes1", "aes1"},
      {"calls.leaf3.smokestack_aes10", "aes10"},
      {"calls.leaf3.smokestack_chain", "chain"},
  };
  if (rdRandAvailable())
    Specs.push_back({"calls.leaf3.smokestack_rdrand", "rdrand", false});
  else
    std::printf("skip: no RDRAND on this host; "
                "calls.leaf3.smokestack_rdrand not run\n");
  return Specs;
}

std::unique_ptr<Module> buildCallKernel(bool Hardened) {
  ParseResult R = parseModule(CallKernelIR, "calls.leaf3");
  if (!R.ok()) {
    std::fprintf(stderr, "call kernel does not parse: %s\n", R.Error.c_str());
    std::exit(1);
  }
  if (Hardened) {
    PassManager PM;
    PM.addPass(std::make_unique<SmokestackPass>());
    PM.run(*R.M);
  }
  return std::move(R.M);
}

struct KernelSpec {
  const char *Name;
  void (*Build)(Module &M);
};

const KernelSpec Kernels[] = {
    {"perlbench.fnv_hash", buildHashKernel},
    {"bzip2.byte_freq", buildFreqKernel},
    {"mcf.min_scan", buildMinScanKernel},
    {"gcc.worklist", buildWorklistKernel},
};

struct EngineResult {
  uint64_t Steps = 0;
  uint64_t ReturnValue = 0;
  double SecondsPerRun = 0.0;
  uint64_t Digest = 0;
};

/// Folds the eight bytes of \p V into FNV-1a digest \p H.
uint64_t digestMore(uint64_t H, uint64_t V) {
  for (int B = 0; B != 8; ++B) {
    H ^= (V >> (B * 8)) & 0xFF;
    H *= 1099511628211ULL;
  }
  return H;
}

/// FNV-1a over the result pair — the identity fingerprint compared across
/// engines (and archived in BENCH_interp_jit.json for the CI gate).
uint64_t digestResult(uint64_t Steps, uint64_t ReturnValue) {
  return digestMore(digestMore(1469598103934665603ULL, Steps), ReturnValue);
}

/// Runs `main` of \p M Reps times on the decoded engine or, with \p Jit,
/// the JIT and returns the median per-run wall time. The first (untimed)
/// warmup run absorbs the one-time decode cost — plus the stencil compile
/// for the JIT (JitThreshold=0 promotes on the warmup call) — and any
/// allocator warmup.
EngineResult measureEngine(Module &M, bool Jit, int Reps) {
  InterpreterOptions Opts;
  Opts.UseJit = Jit;
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);

  ExecResult Warm = VM.run("main");
  if (!Warm.ok()) {
    std::fprintf(stderr, "kernel trapped: %s\n", Warm.Message.c_str());
    std::exit(1);
  }

  std::vector<double> Times;
  EngineResult R;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    ExecResult Res = VM.run("main");
    auto T1 = std::chrono::steady_clock::now();
    if (!Res.ok()) {
      std::fprintf(stderr, "kernel trapped: %s\n", Res.Message.c_str());
      std::exit(1);
    }
    R.Steps = Res.Steps;
    R.ReturnValue = Res.ReturnValue;
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::sort(Times.begin(), Times.end());
  R.SecondsPerRun = Times[Times.size() / 2];
  R.Digest = digestResult(R.Steps, R.ReturnValue);
  return R;
}

/// One call kernel on one engine: its own module, source and VM.
struct CallRun {
  std::unique_ptr<Module> M;
  DeterministicEntropySource Entropy{0xF163};
  std::unique_ptr<RandomSource> Rng;
  /// The "chain" kernel's source: a pool worker's default chain, seeded
  /// as request 0 of root seed 0xF163.
  std::optional<RequestRng> Chain;
  std::unique_ptr<Interpreter> VM;

  RandomSource *source() { return Chain ? &Chain->source() : Rng.get(); }
  std::vector<double> Times;
  EngineResult R;
};

/// Times every kernel of \p Specs on the decoded engine and, with
/// \p WantJit, the JIT; returns {decoded, jit} per kernel (jit = decoded
/// without it). The runs are interleaved round-robin, one run of every
/// variant per rep, so host noise lands on all variants alike and the
/// speedup and overhead ratios compare like with like. A seeded hardened
/// kernel's digest also folds its source's next draw after the last run,
/// so an engine that drew a different number of values cannot match.
std::vector<std::pair<EngineResult, EngineResult>>
measureCallKernels(const std::vector<CallKernelSpec> &Specs, bool WantJit,
                   int Reps) {
  std::vector<std::unique_ptr<CallRun>> Runs;
  for (const CallKernelSpec &Spec : Specs)
    for (bool Jit : {false, true}) {
      if (Jit && !WantJit)
        continue;
      auto Run = std::make_unique<CallRun>();
      Run->M = buildCallKernel(Spec.Rng[0] != '\0');
      if (std::strcmp(Spec.Rng, "chain") == 0) {
        Run->Chain.emplace(RequestRng::Config());
        Run->Chain->reseed(0xF163, 0);
      } else {
        Run->Rng = makeRandomSource(Spec.Rng, Run->Entropy); // null: plain
      }
      InterpreterOptions Opts;
      Opts.UseJit = Jit;
      Opts.JitThreshold = 0;
      Run->VM = std::make_unique<Interpreter>(*Run->M, Run->source(), Opts);
      Runs.push_back(std::move(Run));
    }
  for (int Rep = -1; Rep != Reps; ++Rep) // rep -1 warms up, untimed
    for (std::unique_ptr<CallRun> &Run : Runs) {
      auto T0 = std::chrono::steady_clock::now();
      ExecResult Res = Run->VM->run("main");
      auto T1 = std::chrono::steady_clock::now();
      if (!Res.ok()) {
        std::fprintf(stderr, "call kernel trapped: %s\n",
                     Res.Message.c_str());
        std::exit(1);
      }
      Run->R.Steps = Res.Steps;
      Run->R.ReturnValue = Res.ReturnValue;
      if (Rep >= 0)
        Run->Times.push_back(std::chrono::duration<double>(T1 - T0).count());
    }
  std::vector<std::pair<EngineResult, EngineResult>> Results;
  const size_t Engines = WantJit ? 2 : 1;
  for (size_t K = 0; K != Specs.size(); ++K) {
    EngineResult Pair[2];
    for (size_t J = 0; J != Engines; ++J) {
      CallRun &Run = *Runs[K * Engines + J];
      std::sort(Run.Times.begin(), Run.Times.end());
      Run.R.SecondsPerRun = Run.Times[Run.Times.size() / 2];
      Run.R.Digest = digestResult(Run.R.Steps, Run.R.ReturnValue);
      if (Run.source() && Specs[K].Seeded)
        Run.R.Digest = digestMore(Run.R.Digest, Run.source()->next());
      Pair[J] = Run.R;
    }
    Results.push_back({Pair[0], WantJit ? Pair[1] : Pair[0]});
  }
  return Results;
}

/// Writes \p Text to \p Path; no path means no file. False when the file
/// cannot be written.
bool writeJson(const char *Path, const std::string &Text) {
  if (!Path)
    return true;
  std::FILE *Out = std::fopen(Path, "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return false;
  }
  std::fputs(Text.c_str(), Out);
  std::fclose(Out);
  std::printf("\nwrote %s\n", Path);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = argc > 1 ? argv[1] : nullptr;
  const char *JitJsonPath = argc > 2 ? argv[2] : nullptr;
  const int Reps = 5;

  // The decoded engine is always measured: it is the digest oracle for the
  // JIT and the baseline of both speedup gates.
  const bool WantJit = jitAvailable();
  if (!WantJit)
    std::fprintf(stderr,
                 "warning: JIT unavailable on this host; measuring the "
                 "decoded engine only\n");

  std::printf("Mini-IR interpreter throughput: pre-decoded vs jit\n");
  std::printf("%-22s %12s %14s %14s %9s\n", "kernel", "steps",
              "decoded Mst/s", "jit Mst/s", "jit/dec");

  std::string Json = "{\n  \"benchmark\": \"interp_throughput\",\n"
                     "  \"reps\": " +
                     std::to_string(Reps) + ",\n  \"kernels\": [\n";
  std::string JitJson =
      std::string("{\n  \"benchmark\": \"interp_jit\",\n") +
      "  \"jit_available\": " + (WantJit ? "true" : "false") +
      ",\n  \"reps\": " + std::to_string(Reps) + ",\n  \"kernels\": [\n";
  double MinJitSpeedup = WantJit ? 1e300 : 0.0;
  bool DigestMismatch = false;
  for (size_t K = 0; K != std::size(Kernels); ++K) {
    const KernelSpec &Spec = Kernels[K];
    Module M(Spec.Name);
    Spec.Build(M);

    EngineResult Decoded = measureEngine(M, /*Jit=*/false, Reps);
    EngineResult Jit;
    if (WantJit)
      Jit = measureEngine(M, /*Jit=*/true, Reps);

    if (WantJit && Jit.Digest != Decoded.Digest) {
      std::fprintf(stderr, "%s: JIT identity violation (decoded %llu/%llu, "
                           "jit %llu/%llu)\n",
                   Spec.Name,
                   static_cast<unsigned long long>(Decoded.ReturnValue),
                   static_cast<unsigned long long>(Decoded.Steps),
                   static_cast<unsigned long long>(Jit.ReturnValue),
                   static_cast<unsigned long long>(Jit.Steps));
      DigestMismatch = true;
    }

    double DecodedRate = Decoded.Steps / Decoded.SecondsPerRun;
    double JitRate = WantJit ? Jit.Steps / Jit.SecondsPerRun : 0.0;
    double JitSpeedup = WantJit ? JitRate / DecodedRate : 0.0;
    if (WantJit)
      MinJitSpeedup = std::min(MinJitSpeedup, JitSpeedup);

    std::printf("%-22s %12llu %14.2f %14.2f %8.2fx\n", Spec.Name,
                static_cast<unsigned long long>(Decoded.Steps),
                DecodedRate / 1e6, JitRate / 1e6, JitSpeedup);

    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "    {\"name\": \"%s\", \"steps\": %llu, "
                  "\"decoded_steps_per_sec\": %.0f, "
                  "\"jit_steps_per_sec\": %.0f, "
                  "\"jit_speedup_vs_decoded\": %.3f}%s\n",
                  Spec.Name, static_cast<unsigned long long>(Decoded.Steps),
                  DecodedRate, JitRate, JitSpeedup,
                  K + 1 == std::size(Kernels) ? "" : ",");
    Json += Row;

    char JitRow[512];
    std::snprintf(JitRow, sizeof(JitRow),
                  "    {\"name\": \"%s\", "
                  "\"digest_decoded\": \"%016llx\", "
                  "\"digest_jit\": \"%016llx\", "
                  "\"jit_speedup_vs_decoded\": %.3f}%s\n",
                  Spec.Name,
                  static_cast<unsigned long long>(Decoded.Digest),
                  static_cast<unsigned long long>(WantJit ? Jit.Digest
                                                          : Decoded.Digest),
                  JitSpeedup, K + 1 == std::size(Kernels) ? "" : ",");
    JitJson += JitRow;
  }
  // The VM's Fig. 3: per engine, the plain call kernel's time is the base
  // of every hardened kernel's overhead ratio.
  std::string CallJson;
  const int CallReps = 301;
  std::printf("\nVM Fig. 3: %llu-call three-alloca leaf, median of %d "
              "interleaved runs\n",
              static_cast<unsigned long long>(CallKernelCalls), CallReps);
  std::printf("%-30s %12s %12s %9s %11s %11s\n", "kernel", "decoded us",
              "jit us", "jit/dec", "dec hard/p", "jit hard/p");
  const std::vector<CallKernelSpec> Specs = callKernels();
  std::vector<std::pair<EngineResult, EngineResult>> Measured =
      measureCallKernels(Specs, WantJit, CallReps);
  const EngineResult &PlainDecoded = Measured[0].first;
  const EngineResult &PlainJit = Measured[0].second;
  for (size_t K = 0; K != Specs.size(); ++K) {
    const CallKernelSpec &Spec = Specs[K];
    const auto &[Decoded, Jit] = Measured[K];
    if (WantJit && Jit.Digest != Decoded.Digest) {
      std::fprintf(stderr, "%s: JIT identity violation (decoded %llu/%llu, "
                           "jit %llu/%llu)\n",
                   Spec.Name,
                   static_cast<unsigned long long>(Decoded.ReturnValue),
                   static_cast<unsigned long long>(Decoded.Steps),
                   static_cast<unsigned long long>(Jit.ReturnValue),
                   static_cast<unsigned long long>(Jit.Steps));
      DigestMismatch = true;
    }
    double JitSpeedup =
        WantJit ? Decoded.SecondsPerRun / Jit.SecondsPerRun : 0.0;
    double DecodedOverhead =
        Decoded.SecondsPerRun / PlainDecoded.SecondsPerRun;
    double JitOverhead =
        WantJit ? Jit.SecondsPerRun / PlainJit.SecondsPerRun : 0.0;
    std::printf("%-30s %12.1f %12.1f %8.2fx %10.3fx %10.3fx\n", Spec.Name,
                Decoded.SecondsPerRun * 1e6,
                WantJit ? Jit.SecondsPerRun * 1e6 : 0.0, JitSpeedup,
                DecodedOverhead, JitOverhead);
    char Row[768];
    std::snprintf(
        Row, sizeof(Row),
        "    {\"name\": \"%s\", \"hardened\": %s, \"rng\": \"%s\", "
        "\"calls\": %llu, \"digest_decoded\": \"%016llx\", "
        "\"digest_jit\": \"%016llx\", \"decoded_us_per_run\": %.2f, "
        "\"jit_us_per_run\": %.2f, \"jit_speedup_vs_decoded\": %.3f, "
        "\"harden_overhead_decoded\": %.3f, "
        "\"harden_overhead_jit\": %.3f}%s\n",
        Spec.Name, Spec.Rng[0] ? "true" : "false", Spec.Rng,
        static_cast<unsigned long long>(CallKernelCalls),
        static_cast<unsigned long long>(Decoded.Digest),
        static_cast<unsigned long long>(Jit.Digest),
        Decoded.SecondsPerRun * 1e6,
        WantJit ? Jit.SecondsPerRun * 1e6 : 0.0, JitSpeedup,
        DecodedOverhead, JitOverhead,
        K + 1 == Specs.size() ? "" : ",");
    CallJson += Row;
  }

  // On hosts without a JIT the digests are the decoded ones and
  // jit_available=false tells the gate to skip.
  char JitTail[128];
  std::snprintf(JitTail, sizeof(JitTail),
                "  ],\n  \"min_jit_speedup_vs_decoded\": %.3f,\n",
                WantJit ? MinJitSpeedup : 0.0);
  JitJson += JitTail;
  JitJson += "  \"call_kernels\": [\n" + CallJson + "  ]\n}\n";
  if (!writeJson(JitJsonPath, JitJson))
    return 1;
  if (DigestMismatch)
    return 1;
  if (WantJit && MinJitSpeedup < 2.0) {
    std::fprintf(stderr,
                 "gate: min JIT speedup vs decoded %.2fx < 2.0x\n",
                 MinJitSpeedup);
    return 2;
  }

  Json += "  ]\n}\n";

  return writeJson(JsonPath, Json) ? 0 : 1;
}
