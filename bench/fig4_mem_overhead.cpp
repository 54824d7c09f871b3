//===- bench/fig4_mem_overhead.cpp - Paper Figure 4 ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 4: percentage increase in maximum resident set size
/// under Smokestack. The paper attributes the overhead to the read-only
/// P-BOX added to each binary; we therefore build, per benchmark, a
/// synthetic Mini-IR module with that program's function-frame profile
/// (function count and stack-signature diversity scaled from the SPEC
/// codes), run the real instrumentation pass, and report the emitted P-BOX
/// bytes against the program's baseline footprint.
///
/// Expected shape: benchmarks with many distinct frame signatures
/// (perlbench-like, h264ref-like, gcc-like) pay the most; table sharing
/// keeps everything in the low single-digit percents.
///
/// A second table measures the same question on the VM this repo serves:
/// the Listing-1 server module and the three app models of src/apps/ each
/// serve 256 benign requests on one Interpreter, plain and under
/// Smokestack, and the row reports the P-BOX bytes and the host memory
/// resident for the VM's segments (SimMemory::residentBytes, whole pages).
///
//===----------------------------------------------------------------------===//

#include "apps/Librelp.h"
#include "apps/Proftpd.h"
#include "apps/Wireshark.h"
#include "core/SmokestackPass.h"
#include "defenses/Deploy.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "support/SplitMix64.h"
#include "vm/Interpreter.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

using namespace smokestack;

namespace {

/// Synthetic program profile approximating one SPEC code's shape.
struct ProgramProfile {
  const char *Name;
  /// Number of functions with stack frames.
  unsigned Functions;
  /// Distinct allocation-signature archetypes (before sharing).
  unsigned SignatureVariety;
  /// Baseline resident footprint in KiB (code + data + peak stack proxy,
  /// scaled from the SPEC reference workloads).
  unsigned BaselineKiB;
};

const ProgramProfile Profiles[] = {
    {"400.perlbench-like", 1800, 260, 580 * 1024 / 16},
    {"401.bzip2-like", 90, 24, 856 * 1024 / 16},
    {"403.gcc-like", 2300, 300, 900 * 1024 / 16},
    {"429.mcf-like", 40, 12, 860 * 1024 / 16},
    {"433.milc-like", 230, 40, 700 * 1024 / 16},
    {"445.gobmk-like", 2700, 160, 30 * 1024},
    {"456.hmmer-like", 240, 48, 64 * 1024 / 16},
    {"458.sjeng-like", 140, 30, 180 * 1024 / 16},
    {"462.libquantum-like", 100, 18, 100 * 1024 / 16},
    {"464.h264ref-like", 590, 210, 70 * 1024},
    {"470.lbm-like", 20, 8, 420 * 1024 / 16},
    {"482.sphinx3-like", 370, 64, 45 * 1024},
};

/// Builds a module whose functions draw stack signatures from
/// \p Profile.SignatureVariety archetypes, then instruments it.
uint64_t pboxBytesFor(const ProgramProfile &Profile) {
  Module M(Profile.Name);
  IRBuilder B(M);
  SplitMix64 Rng(0xF16'4 ^ (uint64_t(Profile.Functions) << 20));

  for (unsigned F = 0; F != Profile.Functions; ++F) {
    Function *Fn =
        M.createFunction("f" + std::to_string(F), B.voidTy(), {});
    B.setInsertPoint(Fn->createBlock("entry"));
    // Signature archetype: deterministic per (profile, archetype id).
    uint64_t Archetype = Rng.nextBounded(Profile.SignatureVariety);
    SplitMix64 Shape(Archetype * 0x9e3779b97f4a7c15ULL + 17);
    unsigned Slots = 1 + Shape.nextBounded(5);
    for (unsigned S = 0; S != Slots; ++S) {
      switch (Shape.nextBounded(5)) {
      case 0:
        B.alloca_(B.i32(), "v" + std::to_string(S));
        break;
      case 1:
        B.alloca_(B.i64(), "v" + std::to_string(S));
        break;
      case 2:
        B.alloca_(B.f64(), "v" + std::to_string(S));
        break;
      case 3:
        B.alloca_(B.getContext().getArrayTy(
                      B.i8(), 16 << Shape.nextBounded(4)),
                  "buf" + std::to_string(S));
        break;
      default:
        B.alloca_(B.getContext().getArrayTy(B.i32(), 8), "arr" +
                                                             std::to_string(S));
        break;
      }
    }
    B.ret();
  }

  PassManager PM;
  auto Pass = std::make_unique<SmokestackPass>();
  const PBox *Box = &Pass->pbox();
  PM.addPass(std::move(Pass));
  PM.run(M);
  return Box->totalBytes();
}

/// A served program of the measured table: its module and entry point.
struct ServedProgram {
  const char *Name;
  const char *Entry;
  std::unique_ptr<Module> (*Make)();
};

std::unique_ptr<Module> listing1() {
  std::ifstream In(SMOKESTACK_EXAMPLES_DIR "/listing1.ir");
  std::ostringstream Text;
  Text << In.rdbuf();
  ParseResult Parsed = parseModule(Text.str(), "listing1.ir");
  if (!Parsed.ok()) {
    std::fprintf(stderr, "listing1.ir: %s\n", Parsed.Error.c_str());
    std::exit(1);
  }
  return std::move(Parsed.M);
}

template <void (*Build)(Module &)> std::unique_ptr<Module> built() {
  auto M = std::make_unique<Module>("app");
  Build(*M);
  return M;
}

const ServedProgram Served[] = {
    {"listing1 (server)", "driver", listing1},
    {"librelp", "relpTcpLstnInit", built<buildLibrelpModule>},
    {"wireshark", "gtk_tree_view_column_cell_set_cell_data",
     built<buildWiresharkModule>},
    {"proftpd", "main_loop", built<buildProftpdModule>},
};

struct Footprint {
  uint64_t PBoxBytes = 0;
  uint64_t Resident = 0;
};

/// Serves 256 benign requests of \p P on one VM under \p Kind and reads
/// the VM's resident segment bytes.
Footprint measureServed(const ServedProgram &P, DefenseKind Kind) {
  std::unique_ptr<Module> M = P.Make();
  DeployedDefense D = deployDefense(*M, Kind, /*BuildSeed=*/1);
  Footprint F;
  if (const GlobalVariable *Box = M->getGlobal(PBoxGlobalName))
    F.PBoxBytes = Box->getInitializer().size();
  DeterministicEntropySource Entropy(7);
  AesCtrRandomSource Rng(Entropy, 10);
  Interpreter VM(*M, &Rng, D.InterpOpts);
  for (int I = 0; I != 256; ++I) {
    ExecResult R = VM.runRequest(P.Entry);
    if (!R.ok()) {
      std::fprintf(stderr, "%s: benign request %d trapped: %s\n", P.Name, I,
                   R.Message.c_str());
      std::exit(1);
    }
  }
  F.Resident = VM.memory().residentBytes();
  return F;
}

} // namespace

int main() {
  std::printf("FIGURE 4: percentage memory (max RSS) overhead of "
              "Smokestack\n");
  std::printf("(P-BOX read-only data emitted by the instrumentation pass "
              "vs. the program's baseline footprint)\n\n");
  std::printf("%-22s  %10s  %12s  %9s\n", "benchmark", "P-BOX KiB",
              "baseline KiB", "overhead");
  double Sum = 0;
  for (const ProgramProfile &Profile : Profiles) {
    uint64_t Bytes = pboxBytesFor(Profile);
    double OverheadPct =
        100.0 * static_cast<double>(Bytes) / (Profile.BaselineKiB * 1024.0);
    Sum += OverheadPct;
    std::printf("%-22s  %10.1f  %12u  %+8.2f%%\n", Profile.Name,
                Bytes / 1024.0, Profile.BaselineKiB, OverheadPct);
  }
  std::printf("%-22s  %10s  %12s  %+8.2f%%\n", "average", "", "",
              Sum / std::size(Profiles));
  std::printf("\n(shape check: signature-diverse codes — perlbench-like, "
              "gcc-like, h264ref-like — pay the most, as in the paper; the "
              "paper also notes these costs sit in read-only data and do "
              "not strongly hurt I-cache behavior)\n");

  std::printf("\nFIGURE 4 on the VM (measured): host memory resident for "
              "one VM's segments after 256 benign requests\n\n");
  std::printf("%-22s  %10s  %10s  %14s  %7s\n", "program", "P-BOX KiB",
              "plain KiB", "smokestack KiB", "ratio");
  for (const ServedProgram &P : Served) {
    Footprint Plain = measureServed(P, DefenseKind::None);
    Footprint Hard = measureServed(P, DefenseKind::Smokestack);
    std::printf("%-22s  %10.1f  %10.1f  %14.1f  %6.2fx\n", P.Name,
                Hard.PBoxBytes / 1024.0, Plain.Resident / 1024.0,
                Hard.Resident / 1024.0,
                static_cast<double>(Hard.Resident) / Plain.Resident);
  }
  return 0;
}
