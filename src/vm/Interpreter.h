//===- vm/Interpreter.h - Mini-IR interpreter ------------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes Mini-IR modules over SimMemory. SSA values (the "registers")
/// live outside the simulated address space, matching the paper's threat
/// model in which the attacker owns data memory but not registers; only
/// alloca'd objects, globals, and the heap are attacker-reachable.
///
/// Frame layout follows x86-ish conventions: the stack grows down and each
/// alloca carves its object below the previous one, so overflowing a buffer
/// upward reaches earlier locals and then the caller's frame — the layout
/// determinism DOP attacks rely on. A Smokestack-instrumented module does
/// not need VM cooperation: its prologue code computes permuted slices at
/// runtime like any other IR.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_INTERPRETER_H
#define SMOKESTACK_VM_INTERPRETER_H

#include "ir/Module.h"
#include "vm/Builtins.h"
#include "vm/SimMemory.h"

#include <atomic>
#include <deque>
#include <memory>
#include <span>

namespace smokestack {

class JitCache;
struct JitShims;
class RandomSource;
class ResilientRandomSource;
struct DecodedCallSite;
struct DecodedFunction;
struct DecodedInst;
class DecodedProgram;

/// Outcome of one simulated execution.
struct ExecResult {
  TrapKind Trap = TrapKind::None;
  std::string Message;
  uint64_t ReturnValue = 0;
  uint64_t Steps = 0;

  bool ok() const { return Trap == TrapKind::None; }
};

/// Observes stack allocations as they happen. Security tests use this as
/// the "memory disclosure" oracle when modeling an attacker that leaks a
/// frame's layout; it must never be used to guide the *same* invocation's
/// corruption (Smokestack's whole point is that the next invocation
/// relayouts).
class LayoutObserver {
public:
  virtual ~LayoutObserver();

  /// Called after \p Alloca in \p F materialized at \p Addr (\p Size bytes).
  virtual void onAlloca(const Function &F, const AllocaInst &Alloca,
                        uint64_t Addr, uint64_t Size) = 0;

  /// Called when an instrumented function binds logical variable \p Name to
  /// \p Addr (Smokestack frame slices carry their original variable name).
  /// A real attacker learns the same mapping by reading the frame contents;
  /// this hook is the simulation's disclosure channel for rewritten frames.
  virtual void onVariableAddress(const Function &F, const std::string &Name,
                                 uint64_t Addr) {
    (void)F;
    (void)Name;
    (void)Addr;
  }

  /// Called when a frame for \p F is entered (before any alloca).
  virtual void onFunctionEnter(const Function &F) { (void)F; }
};

/// Execution options for one Interpreter instance.
struct InterpreterOptions {
  /// Maximum number of executed instructions before OutOfFuel.
  uint64_t Fuel = 200'000'000;
  /// Random downward shift of the initial stack pointer — models stack
  /// base randomization / ASLR (must be < half the stack size).
  uint64_t StackBaseOffset = 0;
  /// Maximum simulated call depth.
  unsigned MaxCallDepth = 512;
  /// Compile hot decoded functions to native x86-64 code (jit/); silently
  /// ignored (decoded fallback) on hosts where jitAvailable() is false.
  /// The JIT preserves the decoded engine's results bit for bit —
  /// ExecResult including Steps, trap points and messages, RNG draw order,
  /// and memory touched-range accounting.
  bool UseJit = false;
  /// Invocations of a function before it is compiled (0 = first call).
  unsigned JitThreshold = 8;
};

/// Looks up \p FuncName in \p M as an entry point called with \p NumArgs
/// arguments. Returns the function definition, or null with \p Why set
/// when there is none or it takes a different number of arguments.
/// Interpreter::run traps BadCall with that reason; servers, whose
/// requests call their entry point with no arguments, refuse to start.
const Function *findEntryPoint(const Module &M, const std::string &FuncName,
                               size_t NumArgs, std::string &Why);

/// The Mini-IR virtual machine.
class Interpreter {
public:
  explicit Interpreter(Module &M, RandomSource *Rng = nullptr,
                       InterpreterOptions Opts = InterpreterOptions());
  ~Interpreter();

  /// Runs \p FuncName with integer/pointer \p Args.
  ExecResult run(const std::string &FuncName,
                 const std::vector<uint64_t> &Args = {});

  /// Serves one request of a long-lived server loop: clears the previous
  /// request's output, resets the heap arena, runs \p FuncName, and — if
  /// the execution trapped (detection trap, segfault, randomness failure)
  /// — confines the damage to this request: the touched stack region is
  /// scrubbed from the run's low-water mark, leftover input records are
  /// discarded, and the memory trap state is cleared (register files are
  /// rebuilt on every function entry, so none carries over). The trap
  /// stays visible in the returned ExecResult; it is recoverable, not
  /// ignored, so the same Interpreter can keep serving requests after a
  /// defeated attack or an injected fault.
  ExecResult runRequest(const std::string &FuncName,
                        const std::vector<uint64_t> &Args = {});

  /// Request-boundary accounting (for the soak harness and -stats).
  uint64_t requestsServed() const { return RequestsServed; }
  uint64_t requestTraps() const { return RequestTraps; }
  uint64_t requestRecoveries() const { return RequestRecoveries; }

  SimMemory &memory() { return Memory; }

  /// Queues one attacker/input record consumed by the get_input builtins.
  void pushInput(std::vector<uint8_t> Record) {
    InputQueue.push_back(std::move(Record));
  }
  void pushInputString(const std::string &Record) {
    InputQueue.emplace_back(Record.begin(), Record.end());
  }
  void clearInput() { InputQueue.clear(); }

  /// Output accumulated by the print builtins.
  const std::string &output() const { return Output; }
  void clearOutput() { Output.clear(); }

  /// Address of a module global in the program's layout
  /// (DecodedProgram::globalAddresses; 0 if absent or not yet loaded).
  uint64_t getGlobalAddress(const std::string &Name) const;

  void setLayoutObserver(LayoutObserver *Observer) {
    TheObserver = Observer;
  }

  /// Sets the instruction budget (InterpreterOptions::Fuel) of later runs.
  void setFuel(uint64_t Fuel) { Opts.Fuel = Fuel; }

  /// Binds the randomness source consumed by the smokestack.rand builtin.
  void setRandomSource(RandomSource *Source);

  /// Binds a cooperative cancellation flag. The decoded engine and the JIT
  /// poll it every CancelCheckInterval steps inside their fuel loops; once
  /// it reads true the run stops with a recoverable TrapKind::WorkerCrash,
  /// so a pool being torn down (shutdownNow, pool death) can abort an
  /// in-flight request without killing the thread. nullptr (the default) disables the check; the
  /// polled load is relaxed, so the hot path cost is one predictable branch.
  void setCancelFlag(const std::atomic<bool> *Flag) { CancelFlag = Flag; }

  /// Publishes a shared, immutable pre-decoded program (see
  /// vm/DecodedProgram.h), so N pool workers pay the decode cost once. The
  /// program must outlive this interpreter and must have been built from
  /// the same Module. Without one, loading the globals (the first run())
  /// decodes the whole module into a program this interpreter owns; the
  /// Module must not change after that.
  ///
  /// Changing the program invalidates the JIT code cache (its entries are
  /// keyed on the old program's DecodedFunctions); out-of-line so the
  /// header does not need the cache type.
  void setSharedProgram(const DecodedProgram *Shared);

  /// Number of functions this VM has compiled to native code (0 when the
  /// JIT is disabled or unavailable). Tier-promotion observability.
  uint64_t jitCompiledFunctions() const;

  /// Number of functions entered during the last run (perf accounting).
  uint64_t callsExecuted() const { return CallCount; }

  /// Returns this VM to its load state: memory becomes bitwise identical
  /// to "freshly constructed + globals loaded", the request counters
  /// restart at zero (bank them first, as across a full rebuild), and
  /// per-run state (input queue, output, trap) is cleared. The load state
  /// is a pure function of the module: the writable segments are zeroed
  /// over their touched ranges and the writable globals' initializers are
  /// written again, while read-only data, which only the loader writes,
  /// keeps its load image. Wiring (random source, cancel flag, shared
  /// program, layout observer) and the JIT code cache are preserved. Cost
  /// is O(bytes dirtied since load), the crash repair of
  /// runtime/WorkerPool.h.
  void resetToLoad();

private:
  /// The JIT runtime shims (jit/JitRuntime.cpp) charge fuel with
  /// chargeFuel and execute single decoded instructions with execInst —
  /// the mechanism that keeps compiled execution bit-identical to the
  /// decoded engine.
  friend struct JitShims;

  /// What execInlined did with one instruction.
  enum class ExecStatus {
    Next,   ///< Continue at IP.
    Trap,   ///< Result holds the trap.
    Return, ///< A Ret/RetVoid: the frame returns.
  };

  /// Materializes the module's globals at the program's addresses, once,
  /// decoding the module into an owned program first if none is set.
  void loadGlobals();
  /// The one writer of a global's initial bytes, shared by loadGlobals and
  /// resetToLoad: writes the writable globals' initializers, and the
  /// read-only ones' too when \p ReadOnlyToo. Returns the bytes written.
  uint64_t writeGlobalInitializers(bool ReadOnlyToo);
  /// Runs \p DF at call depth \p Depth: dispatches over its flat
  /// DecodedInst array with zero per-operand map lookups, or enters its
  /// compiled code once the JIT has promoted it.
  uint64_t callDecoded(const DecodedFunction &DF,
                       std::span<const uint64_t> Args, ExecResult &Result,
                       unsigned Depth);
  /// One instruction's fuel charge, in the decoded engine's order: trap
  /// OutOfFuel at zero, poll the cancel flag on its schedule, then take
  /// one unit. Returns false on trap. Shared by callDecoded and the JIT's
  /// segment slow path, so both stop at the same instruction.
  [[gnu::always_inline]] bool chargeFuel(const Function &F,
                                         ExecResult &Result) {
    if (FuelLeft == 0) {
      Result.Trap = TrapKind::OutOfFuel;
      Result.Message = "instruction budget exhausted in " + F.getName();
      return false;
    }
    if ((FuelLeft & CancelCheckMask) == 0 && CancelFlag &&
        CancelFlag->load(std::memory_order_relaxed)) {
      Result.Trap = TrapKind::WorkerCrash;
      Result.Message = "cooperative cancel in " + F.getName();
      return false;
    }
    --FuelLeft;
    return true;
  }
  /// The one copy of every opcode's semantics: executes \p DI, an
  /// instruction of \p DF in the frame at \p Depth whose register file is
  /// \p Regs. \p IP holds the next instruction's index on entry, and a
  /// branch overwrites it. Force-inlined into callDecoded's loop (defined
  /// in Interpreter.cpp); everything else reaches it through execInst.
  ExecStatus execInlined(const DecodedFunction &DF, const DecodedInst &DI,
                         uint64_t *Regs, unsigned Depth, ExecResult &Result,
                         size_t &IP);
  /// Out-of-line execInlined of DF.Insts[IP], a non-control instruction,
  /// for the JIT's slow paths. Returns false on trap.
  bool execInst(const DecodedFunction &DF, size_t IP, uint64_t *Regs,
                unsigned Depth, ExecResult &Result);
  /// Executes call site \p CS of \p DF (a frame at \p Depth whose register
  /// file is \p Regs): gathers the arguments without a heap allocation
  /// and dispatches to the builtin or the callee. Shared by the decoded
  /// dispatch loop and the JIT shim. Returns false on trap.
  bool callSite(const DecodedFunction &DF, const DecodedCallSite &CS,
                const uint64_t *Regs, unsigned Depth, uint64_t &RetValue,
                ExecResult &Result);
  bool dispatchBuiltin(BuiltinId Id, const Function &Callee,
                       std::span<const uint64_t> Args, uint64_t &RetValue,
                       ExecResult &Result);
  uint64_t materializeAlloca(const Function &F, const AllocaInst &Alloca,
                             uint64_t Count, ExecResult &Result);

  /// Post-trap cleanup behind runRequest().
  void recoverRequestState();

  // Builtin helpers.
  /// smokestack.rand: one draw from the bound source, failing closed.
  /// Shared by dispatchBuiltin and the JIT's rand shim, so the decoded
  /// engine and compiled code draw, and trap, through the same statements.
  bool builtinRand(uint64_t &RetValue, ExecResult &Result);
  bool builtinSnprintf(std::span<const uint64_t> Args, uint64_t &RetValue,
                       ExecResult &Result);

  Module &M;
  SimMemory Memory;
  RandomSource *Rng = nullptr;
  /// Rng when it is a fallback chain: compiled smokestack.rand call sites
  /// draw through its healthy path (JitContext::Chain).
  ResilientRandomSource *Chain = nullptr;
  InterpreterOptions Opts;
  /// Cooperative cancellation flag polled by the fuel loops (see
  /// setCancelFlag); nullptr when cancellation is not wired up.
  const std::atomic<bool> *CancelFlag = nullptr;
  /// The cancel flag is polled when FuelLeft is a multiple of this power of
  /// two, bounding the abort latency to ~1k steps.
  static constexpr uint64_t CancelCheckMask = 1023;
  /// Extra bytes below the low-water mark scrubbed on recovery, covering
  /// alignment slop and the headroom area an overflowing frame can reach.
  static constexpr uint64_t ScrubSlack = 0x1'0000;

  uint64_t StackPointer = 0;
  /// Lowest stack pointer reached by the current run's allocas; bounds the
  /// post-trap scrub so recovery cost tracks actual usage, not segment size.
  uint64_t StackLowWater = 0;
  uint64_t FuelLeft = 0;
  uint64_t CallCount = 0;
  uint64_t RequestsServed = 0;
  uint64_t RequestTraps = 0;
  uint64_t RequestRecoveries = 0;
  /// The decoded module every call executes from, and the global layout:
  /// the pool's shared program, or OwnedProgram, built by loadGlobals when
  /// none was set.
  const DecodedProgram *Program = nullptr;
  std::unique_ptr<DecodedProgram> OwnedProgram;
  /// Tiered native-code cache (jit/JitCache.h); null unless Opts.UseJit on
  /// a jitAvailable() host. Derived state: survives resetToLoad, cleared
  /// when the shared program changes.
  std::unique_ptr<JitCache> Jit;
  /// Depth-indexed register files, FrameSlots apart: the frame at depth D
  /// is registerFile(D), and its callee's is FrameSlots words above it,
  /// which compiled code relies on for native-to-native calls (see
  /// jit/JitAbi.h). run() sizes it for MaxCallDepth, so it never moves
  /// mid-run. Every entry rebuilds its file, so nothing carries over
  /// between calls or requests.
  std::unique_ptr<uint64_t[]> RegisterStack;
  size_t RegisterStackSlots = 0;
  /// Program->maxSlots() of the current run.
  uint32_t FrameSlots = 1;
  uint64_t *registerFile(unsigned Depth) {
    return RegisterStack.get() + static_cast<size_t>(Depth) * FrameSlots;
  }
  std::deque<std::vector<uint8_t>> InputQueue;
  std::string Output;
  LayoutObserver *TheObserver = nullptr;
  bool GlobalsLoaded = false;
};

} // namespace smokestack

#endif // SMOKESTACK_VM_INTERPRETER_H
