//===- jit/JitCache.cpp - Tiered native-code cache ------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jit/JitCache.h"

#include "jit/JitCompiler.h"
#include "support/Statistics.h"

using namespace smokestack;

static Statistic NumJitCompiled("jit.functions-compiled",
                                "Functions compiled to native code");
static Statistic NumJitCodeBytes("jit.code-bytes",
                                 "Page-rounded bytes of sealed JIT code");
static Statistic NumJitFailures("jit.compile-failures",
                                "Functions that fell back to decoded");
static Statistic NumJitCalls("jit.native-calls",
                             "Function invocations run as native code");

void JitCache::flushStats() {
  NumJitCalls += NativeCalls;
  NativeCalls = 0;
}

JitCache::Entry &JitCache::entryFor(const DecodedFunction &DF) {
  if (DF.Index >= Entries.size())
    Entries.resize(DF.Index + 1);
  Entry &E = Entries[DF.Index];
  if (E.Key != &DF)
    E = Entry{&DF};
  return E;
}

JitFn JitCache::onColdCall(const DecodedFunction &DF) {
  Entry &E = entryFor(DF);
  if (E.Failed)
    return nullptr;
  if (E.Invocations++ < Threshold)
    return nullptr;

  std::vector<uint8_t> Code = compileDecoded(DF, *this);
  const void *Span = Code.empty() ? nullptr : Arena.install(Code);
  if (!Span) {
    E.Failed = true;
    ++NumJitFailures;
    return nullptr;
  }
  E.Fn = reinterpret_cast<JitFn>(const_cast<void *>(Span));
  ++NumJitCompiled;
  NumJitCodeBytes += (Code.size() + 4095) & ~size_t{4095};
  ++NativeCalls;
  return E.Fn;
}
