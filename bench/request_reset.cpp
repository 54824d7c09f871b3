//===- bench/request_reset.cpp - Request-boundary reset cost --------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices the four ways a worker's VM returns to a clean state, across a
/// sweep of touched-bytes sizes:
///
///   scrub             SimMemory::scrubStack over N dirtied stack bytes
///                     (the post-trap recovery path inside runRequest)
///   heap_reset        SimMemory::resetHeap after an N-byte allocation
///                     (the per-request arena reset)
///   reset_to_load     Interpreter::resetToLoad with N bytes dirtied since
///                     load (the crash repair); its JSON key keeps the
///                     name snapshot_restore_nanos
///   full_rebuild      what the reset replaces, priced so the rebuilt VM
///                     ends where a reset one starts: destroy the dirty
///                     Interpreter, construct a fresh one, load its
///                     globals and read-only table (the P-BOX's segment),
///                     and fault in the same N bytes of stack and heap
///                     the reset VM keeps resident
///
/// The sweep runs Repetitions times, interleaved; each figure is the
/// median over the repetitions. The headline metric,
/// restore_speedup_vs_rebuild, is the median over the repetitions of the
/// full-rebuild / reset ratio at the largest touched size:
/// machine-relative, so it transfers across runner generations better
/// than raw ns/op, and a median, so one repetition that the host slowed
/// cannot move it.
/// Results are written as JSON to argv[1] when it is given (nothing is
/// written otherwise); the CI bench-smoke job gates them against the
/// committed BENCH_reset.json with tools/check_bench_regression.py.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "vm/DecodedProgram.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace smokestack;

namespace {

/// A module with a few globals so the load state is non-trivial — the
/// reset has a writable global to write back, like a deployed module.
void buildModule(Module &M) {
  IRBuilder B(M);
  M.createGlobal("counter", B.i64(), {1});
  M.createGlobal("table", B.getContext().getArrayTy(B.i8(), 4096),
                 {0xAB, 0xCD, 0xEF}, /*ReadOnly=*/true);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.constI64(13));
}

/// Dirties \p N bytes of \p Mem the way a request does: half at the top
/// of the stack, half in one heap allocation.
void dirty(SimMemory &Mem, const std::vector<uint8_t> &Pattern, uint64_t N) {
  Mem.write(MemoryMap::StackTop - N / 2, Pattern.data(), N / 2);
  uint64_t P = Mem.heapAlloc(N / 2);
  Mem.write(P, Pattern.data(), N / 2);
}

uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of per-op wall times: \p Setup re-dirties state (untimed), then
/// \p Op is timed with two clock reads. Per-op timing keeps the re-dirty
/// cost out of the figure at the price of ~clock-read noise, which the
/// median and the µs-scale ops absorb.
template <typename SetupFn, typename OpFn>
double medianOpNanos(int Reps, SetupFn Setup, OpFn Op) {
  std::vector<uint64_t> Times;
  Times.reserve(Reps);
  for (int R = 0; R != Reps; ++R) {
    Setup();
    uint64_t T0 = nowNanos();
    Op();
    uint64_t T1 = nowNanos();
    Times.push_back(T1 - T0);
  }
  std::sort(Times.begin(), Times.end());
  return static_cast<double>(Times[Times.size() / 2]);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = argc > 1 ? argv[1] : nullptr;
  const int Reps = 25;
  const int Repetitions = 5;
  const uint64_t TouchedSizes[] = {4u << 10, 64u << 10, 256u << 10, 1u << 20};
  constexpr size_t NumSizes = std::size(TouchedSizes);

  Module M("reset");
  buildModule(M);
  // Pool workers share one decoded program, so a rebuild never re-decodes.
  DecodedProgram Shared(M);
  Interpreter VM(M);
  VM.setSharedProgram(&Shared);
  VM.resetToLoad(); // loads the globals
  SimMemory &Mem = VM.memory();

  std::vector<uint8_t> Pattern(1u << 20, 0xA5);

  // Per size, per repetition: scrub, heap reset, reset to load, rebuild.
  std::vector<double> ScrubNs[NumSizes], HeapNs[NumSizes],
      RestoreNs[NumSizes], RebuildNs[NumSizes];
  std::vector<double> Speedups;
  for (int Rep = 0; Rep != Repetitions; ++Rep) {
    for (size_t K = 0; K != NumSizes; ++K) {
      uint64_t N = TouchedSizes[K];

      // Post-trap stack scrub: N dirty bytes at the top of the stack.
      uint64_t StackFrom = MemoryMap::StackTop - N;
      ScrubNs[K].push_back(medianOpNanos(
          Reps, [&] { Mem.write(StackFrom, Pattern.data(), N); },
          [&] { Mem.scrubStack(StackFrom); }));

      // Per-request arena reset: one N-byte allocation, fully written.
      HeapNs[K].push_back(medianOpNanos(
          Reps,
          [&] {
            uint64_t P = Mem.heapAlloc(N);
            Mem.write(P, Pattern.data(), N);
          },
          [&] { Mem.resetHeap(); }));

      // Crash repair: N bytes dirtied across stack and heap.
      RestoreNs[K].push_back(medianOpNanos(
          Reps, [&] { dirty(Mem, Pattern, N); }, [&] { VM.resetToLoad(); }));

      // Crash repair by reconstruction. The segments are mapped lazily, so
      // constructing the VM alone is cheap; the rebuild is not done until
      // it has loaded its globals (run() does, on a one-instruction main)
      // and faulted back in the N bytes the reset VM keeps resident.
      auto Rebuilt = std::make_unique<Interpreter>(M);
      RebuildNs[K].push_back(medianOpNanos(
          Reps, [&] { dirty(Rebuilt->memory(), Pattern, N); },
          [&] {
            Rebuilt.reset();
            Rebuilt = std::make_unique<Interpreter>(M);
            Rebuilt->setSharedProgram(&Shared);
            Rebuilt->run("main");
            dirty(Rebuilt->memory(), Pattern, N);
          }));
    }
    // Headline ratio at the LARGEST touched size: the most conservative
    // point, since a reset's cost is all per byte while a rebuild also
    // pays a fixed cost (mappings, page faults) that weighs most at small
    // N.
    double Restore = RestoreNs[NumSizes - 1].back();
    Speedups.push_back(Restore > 0.0 ? RebuildNs[NumSizes - 1].back() / Restore
                                     : 0.0);
  }

  std::printf("request-boundary reset cost (ns/op, median of %d "
              "repetitions of a median of %d)\n",
              Repetitions, Reps);
  std::printf("%12s %12s %12s %18s %14s\n", "touched", "scrub", "heap_reset",
              "reset_to_load", "full_rebuild");
  std::string Json = "{\n  \"bench\": \"request_reset\",\n  \"reps\": " +
                     std::to_string(Reps) + ",\n  \"repetitions\": " +
                     std::to_string(Repetitions) + ",\n  \"points\": [\n";
  for (size_t K = 0; K != NumSizes; ++K) {
    uint64_t N = TouchedSizes[K];
    double Scrub = median(ScrubNs[K]), Heap = median(HeapNs[K]),
           Restore = median(RestoreNs[K]), Rebuild = median(RebuildNs[K]);
    std::printf("%9llu K %12.0f %12.0f %18.0f %14.0f\n",
                static_cast<unsigned long long>(N >> 10), Scrub, Heap, Restore,
                Rebuild);
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "    {\"touched_bytes\": %llu, \"scrub_nanos\": %.0f, "
                  "\"heap_reset_nanos\": %.0f, "
                  "\"snapshot_restore_nanos\": %.0f, "
                  "\"full_rebuild_nanos\": %.0f}%s\n",
                  static_cast<unsigned long long>(N), Scrub, Heap, Restore,
                  Rebuild, K + 1 == NumSizes ? "" : ",");
    Json += Row;
  }

  double Speedup = median(Speedups);
  std::string Runs;
  std::printf("\nreset vs full rebuild at 1 MiB touched, per repetition:");
  for (double S : Speedups) {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%s%.3f", Runs.empty() ? "" : ", ", S);
    Runs += Buf;
    std::printf(" %.1fx", S);
  }
  std::printf("\nmedian: %.1fx\n", Speedup);

  char Tail[128];
  std::snprintf(Tail, sizeof(Tail),
                "  ],\n  \"restore_speedup_vs_rebuild\": %.3f,\n", Speedup);
  Json += Tail;
  Json += "  \"restore_speedup_runs\": [" + Runs + "]\n}\n";

  if (JsonPath) {
    std::FILE *Out = std::fopen(JsonPath, "w");
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fputs(Json.c_str(), Out);
    std::fclose(Out);
    std::printf("wrote %s\n", JsonPath);
  }
  // The reset exists to beat reconstruction; fail loudly if it ever does
  // not (2x is far below the measured margin, catching only real
  // breakage rather than runner noise).
  return Speedup >= 2.0 ? 0 : 2;
}
