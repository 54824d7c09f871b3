//===- vm/DecodedProgram.cpp - Shared pre-decoded module form -------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/DecodedProgram.h"

#include "ir/Module.h"
#include "support/Align.h"
#include "support/ErrorHandling.h"
#include "support/Statistics.h"
#include "vm/Decoder.h"
#include "vm/SimMemory.h"

#include <algorithm>

using namespace smokestack;

namespace {

Statistic NumPrograms("vm.decoded-programs",
                      "DecodedPrograms built (pool-shared or VM-owned)");

} // namespace

std::unordered_map<std::string, uint64_t>
smokestack::layoutModuleGlobals(const Module &M) {
  std::unordered_map<std::string, uint64_t> Addresses;
  uint64_t RWCursor = 0;
  uint64_t ROCursor = 0;
  for (size_t I = 0, E = M.getNumGlobals(); I != E; ++I) {
    const GlobalVariable *G = M.getGlobalAt(I);
    uint64_t Size = G->getValueType()->sizeInBytes();
    uint64_t Align = G->getValueType()->alignment();
    uint64_t Addr;
    if (G->isReadOnly()) {
      ROCursor = alignTo(ROCursor, Align);
      Addr = MemoryMap::RODataBase + ROCursor;
      ROCursor += Size;
      if (ROCursor > MemoryMap::RODataSize)
        reportFatalError("read-only data segment exhausted");
    } else {
      RWCursor = alignTo(RWCursor, Align);
      Addr = MemoryMap::GlobalsBase + RWCursor;
      RWCursor += Size;
      if (RWCursor > MemoryMap::GlobalsSize)
        reportFatalError("globals segment exhausted");
    }
    Addresses[G->getName()] = Addr;
  }
  return Addresses;
}

DecodedProgram::DecodedProgram(Module &M)
    : GlobalAddresses(layoutModuleGlobals(M)) {
  for (size_t I = 0, E = M.getNumFunctions(); I != E; ++I) {
    Function *F = M.getFunctionAt(I);
    if (F->isDeclaration())
      continue;
    Decoded.emplace(F, decodeFunction(*F, GlobalAddresses,
                                      static_cast<uint32_t>(I)));
  }
  // Every definition is decoded now, so direct calls can bind their
  // callee's decoded form once instead of looking it up on every call.
  for (auto &Entry : Decoded) {
    MaxSlots = std::max(MaxSlots, Entry.second->NumSlots);
    for (DecodedCallSite &CS : Entry.second->CallSites)
      if (CS.Builtin == BuiltinId::None)
        CS.CalleeDF = find(CS.Callee);
  }
  ++NumPrograms;
}
