//===- vm/Builtins.h - Builtin ids resolved at decode time ------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's builtin functions (see Builtins.cpp), named by a small enum so
/// a call site resolves its declaration's name once — at decode time — and
/// every call dispatches by switch instead of comparing strings. Each id
/// carries the argument count its C signature requires; a call passing
/// fewer traps BadCall instead of reading past its argument list.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_BUILTINS_H
#define SMOKESTACK_VM_BUILTINS_H

#include <cstdint>
#include <string>

namespace smokestack {

enum class BuiltinId : uint8_t {
  None, ///< Not a builtin: the callee is a definition.
  Rand, ///< smokestack.rand, drawn by every hardened prologue.
  Trap, ///< smokestack.trap
  Malloc,
  Free,
  Memset,
  Memcpy,
  Strlen,
  Strcpy,
  Strncpy,
  Sstrncpy,
  GetInput,
  GetInputN,
  InputRemaining,
  PrintI64,
  PrintStr,
  Snprintf,
  Abort,
  Unknown, ///< A declaration the VM does not implement (traps BadCall).
};

/// The builtin a declaration named \p Name dispatches to (Unknown if none).
BuiltinId builtinIdFor(const std::string &Name);

/// The declaration name \p Id dispatches from ("" for None and Unknown).
const char *builtinName(BuiltinId Id);

/// Arguments \p Id reads unconditionally; fewer traps BadCall.
unsigned builtinMinArgs(BuiltinId Id);

} // namespace smokestack

#endif // SMOKESTACK_VM_BUILTINS_H
