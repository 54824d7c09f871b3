//===- core/SmokestackPass.h - Runtime stack-layout randomization -*- C++ -*-=//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Smokestack instrumentation pass (paper Sections III-D and IV). For
/// every function with automatic variables it:
///
///  1. gathers the static stack allocations (sizes + alignments),
///  2. assigns a shared P-BOX table for the allocation signature,
///  3. replaces the individual allocas with one total-size frame allocation
///     plus per-variable slices whose offsets are loaded from the P-BOX row
///     selected by a fresh random number at the prologue,
///  4. places a per-function identifier (XOR'ed with the invocation's
///     random value, which lives only in a register) into one of the
///     permuted slots and re-checks it at every return, and
///  5. precedes every VLA with a random-size dummy allocation so
///     dynamically-sized frames are randomized too.
///
/// After the pass runs, finalize() materializes the P-BOX as a read-only
/// module global so the instrumented code (and nothing else) can read it.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_CORE_SMOKESTACKPASS_H
#define SMOKESTACK_CORE_SMOKESTACKPASS_H

#include "core/PBox.h"
#include "pass/Pass.h"

namespace smokestack {

class AllocaInst;

/// Configuration of the instrumentation.
struct SmokestackOptions {
  PBoxOptions PBox;
  /// Insert the prologue/epilogue function-identifier checks.
  bool FunctionIdChecks = true;
  /// Randomize VLA placement with dummy allocations.
  bool RandomizeVLAs = true;
  /// Mask applied to the random value to size VLA dummy padding (bytes).
  uint64_t VlaPadMask = 0xF8;
};

/// Name of the read-only global carrying the serialized P-BOX.
inline constexpr const char *PBoxGlobalName = "__smokestack_pbox";

/// The instrumentation pass. Run it through a PassManager, then call
/// finalize() once to emit the P-BOX global.
class SmokestackPass : public ModulePass {
public:
  explicit SmokestackPass(SmokestackOptions Opts = SmokestackOptions())
      : Opts(Opts), Box(Opts.PBox) {}

  const char *getPassName() const override { return "smokestack"; }
  bool runOnModule(Module &M) override;

  /// The P-BOX built while instrumenting (valid after runOnModule).
  const PBox &pbox() const { return Box; }

  /// Number of functions instrumented.
  unsigned functionsInstrumented() const { return Instrumented; }

  /// Number of functions whose static allocas were left unhardened because
  /// their worst-case frame reaches 4 GiB, past the P-BOX's 32-bit offsets.
  unsigned framesTooLarge() const { return FramesTooLarge; }

private:
  void instrumentWithPlan(Module &M, Function *F,
                          const std::vector<AllocaInst *> &Allocas,
                          const AllocationSignature &Sig, unsigned TableId,
                          uint64_t FunctionId);
  void randomizeVLAs(Function &F, Module &M);
  void emitPBoxGlobal(Module &M);

  SmokestackOptions Opts;
  PBox Box;
  /// Byte offset of each table inside the emitted global; filled lazily as
  /// tables are assigned, finalized in emitPBoxGlobal.
  std::vector<uint64_t> TableOffsets;
  unsigned Instrumented = 0;
  unsigned FramesTooLarge = 0;
  uint64_t NextFunctionId = 0x5343'0001; // arbitrary distinctive base
};

} // namespace smokestack

#endif // SMOKESTACK_CORE_SMOKESTACKPASS_H
