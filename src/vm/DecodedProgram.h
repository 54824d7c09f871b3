//===- vm/DecodedProgram.h - Shared pre-decoded module form ----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An immutable, shareable pre-decoded form of a Module: the deterministic
/// global address map plus one DecodedFunction per definition, with every
/// direct call site bound to its callee's. It is the only decode path and
/// the only global layout: the worker pool builds one and publishes it
/// read-only to every interpreter worker, so the decode cost is paid once
/// per module instead of once per worker, and the hot path performs zero
/// synchronization — workers only ever read it; a standalone Interpreter
/// builds its own when it first loads its globals.
///
/// Sharing is sound because global layout is a pure function of the module
/// (globals are placed by declaration order at fixed segment bases), so
/// every Interpreter over the same Module resolves every global to the same
/// simulated address, and the decoded form — which folds those addresses
/// into its constant pool — is identical for all of them. The same map
/// tells Interpreter::loadGlobals where to write each global's initializer
/// and Interpreter::resetToLoad where to write the writable ones again.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_DECODEDPROGRAM_H
#define SMOKESTACK_VM_DECODEDPROGRAM_H

#include "vm/DecodedFunction.h"

#include <memory>
#include <string>
#include <unordered_map>

namespace smokestack {

class Module;
class Function;

/// The decoded form of every function definition in a module, built once.
/// Immutable after construction; safe to share across threads.
class DecodedProgram {
public:
  explicit DecodedProgram(Module &M);

  /// The decoded form of \p F (nullptr for declarations or functions from
  /// another module).
  const DecodedFunction *find(const Function *F) const {
    auto It = Decoded.find(F);
    return It == Decoded.end() ? nullptr : It->second.get();
  }

  /// Deterministic simulated addresses of the module's globals: read-only
  /// globals packed from MemoryMap::RODataBase, writable globals from
  /// MemoryMap::GlobalsBase, both in declaration order with natural
  /// alignment.
  const std::unordered_map<std::string, uint64_t> &globalAddresses() const {
    return GlobalAddresses;
  }

  size_t numFunctions() const { return Decoded.size(); }

  /// The largest register file (DecodedFunction::NumSlots) of any
  /// function, at least 1: the stride of the interpreter's register stack.
  uint32_t maxSlots() const { return MaxSlots; }

private:
  uint32_t MaxSlots = 1;
  std::unordered_map<std::string, uint64_t> GlobalAddresses;
  std::unordered_map<const Function *, std::unique_ptr<DecodedFunction>>
      Decoded;
};

} // namespace smokestack

#endif // SMOKESTACK_VM_DECODEDPROGRAM_H
