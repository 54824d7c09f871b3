//===- jit/JitCache.h - Tiered native-code cache ---------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-Interpreter cache of compiled DecodedFunctions with invocation-count
/// tiering: a function runs under the decoded engine until it has been
/// entered JitThreshold times, then gets compiled once and runs native from
/// there on. Compilation failures are remembered so a function that cannot
/// be compiled costs one attempt, not one per call.
///
/// The cache is *derived* state: everything in it can be rebuilt from the
/// DecodedFunction it is keyed on, so snapshot restore keeps it (compiled
/// code reads Interpreter state only through its JitContext and embeds
/// only this cache's own cells — see JitAbi.h) and only a
/// program change (setSharedProgram with a different program) clears it,
/// because the DecodedFunction keys would dangle.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_JIT_JITCACHE_H
#define SMOKESTACK_JIT_JITCACHE_H

#include "jit/CodeArena.h"
#include "jit/JitAbi.h"
#include "vm/DecodedFunction.h"

#include <cstdint>
#include <deque>

namespace smokestack {

class JitCache {
public:
  /// \p Threshold is the number of interpreted invocations before a
  /// function is compiled; 0 compiles on first call (tests, benchmarks).
  explicit JitCache(unsigned Threshold) : Threshold(Threshold) {}

  /// Called at function entry from C++. Returns the native entry point
  /// when this function is hot and compiled, or nullptr to run the decoded
  /// engine this time (cold, failed to compile, or arena exhausted). The
  /// hot path is one indexed load: entries are keyed by
  /// DecodedFunction::Index. Compiled callers reach compiled callees
  /// without coming here (see entryCell).
  JitFn onCall(const DecodedFunction &DF) {
    if (DF.Index < Entries.size()) {
      Entry &E = Entries[DF.Index];
      if (E.Fn && E.Key == &DF) {
        ++NativeCalls;
        return E.Fn;
      }
    }
    return onColdCall(DF);
  }

  /// Adds the native invocations counted since the last flush to the
  /// jit.native-calls statistic. Interpreter::run calls it once per run,
  /// so the statistic is exact at every request boundary without an
  /// atomic add per call.
  void flushStats();

  /// Drops every entry (the keys are about to dangle). Sealed code pages
  /// stay mapped RX in the arena — W^X forbids reopening them — but are
  /// unreachable once their entries are gone: compiled code is entered
  /// only through an entry, and it reaches other code only through the
  /// entry cells of its own generation.
  void clear() { Entries.clear(); }

  /// Number of functions with installed native code (tests, -stats).
  uint64_t compiledFunctions() const {
    uint64_t N = 0;
    for (const Entry &E : Entries)
      if (E.Fn)
        ++N;
    return N;
  }

  /// Page-rounded bytes of sealed code.
  uint64_t codeBytes() const { return Arena.bytesUsed(); }

  /// The cell holding \p DF's entry point, null until DF is compiled.
  /// Native call sites compiled by this cache read it on every call, so a
  /// callee compiled after its caller is entered natively without
  /// patching sealed code. The cell never moves.
  JitFn *entryCell(const DecodedFunction &DF) { return &entryFor(DF).Fn; }

  /// The count of native invocations not yet flushed to jit.native-calls;
  /// native call sites bump it directly.
  uint64_t *nativeCallCounter() { return &NativeCalls; }

private:
  struct Entry {
    /// The function this entry describes; an index reused by a different
    /// DecodedFunction resets the entry.
    const DecodedFunction *Key = nullptr;
    /// The installed code, null until compiled. Compiled callers read
    /// this cell directly (entryCell), so it never moves.
    JitFn Fn = nullptr;
    uint64_t Invocations = 0;
    bool Failed = false;
  };

  /// DF's entry, created (or reset to DF) on first use.
  Entry &entryFor(const DecodedFunction &DF);

  /// Tiering for a function without installed code: counts the
  /// invocation and compiles once the threshold is reached.
  JitFn onColdCall(const DecodedFunction &DF);

  unsigned Threshold;
  CodeArena Arena;
  /// Indexed by DecodedFunction::Index. A deque, because growing it keeps
  /// every element where it is, and sealed code holds the address of each
  /// callee's Entry::Fn.
  std::deque<Entry> Entries;
  /// Native invocations not yet added to jit.native-calls.
  uint64_t NativeCalls = 0;
};

} // namespace smokestack

#endif // SMOKESTACK_JIT_JITCACHE_H
