//===- jit/JitCompiler.h - DecodedFunction -> x86-64 stencils --*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline copy-and-patch compiler: lowers one DecodedFunction to
/// x86-64 machine code by concatenating per-opcode byte stencils and
/// patching their holes (register-file displacements, immediates, branch
/// rel32s, shim addresses). See DESIGN.md §14 for the stencil catalogue
/// and JitAbi.h for the calling contract.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_JIT_JITCOMPILER_H
#define SMOKESTACK_JIT_JITCOMPILER_H

#include "jit/JitAbi.h"

#include <cstdint>
#include <vector>

namespace smokestack {

class JitCache;
struct DecodedFunction;

/// Compiles \p DF to position-independent machine code implementing the
/// JitFn contract. The code is bound to \p Cache: its native call sites
/// read the callees' entry cells and bump the native-call counter of that
/// cache. Returns an empty vector when the function cannot be compiled
/// (pathologically large, or a non-x86-64 build); callers fall back to the
/// decoded engine.
std::vector<uint8_t> compileDecoded(const DecodedFunction &DF,
                                    JitCache &Cache);

/// Splits \p DF into fuel segments (JitAbi.h): returns, for every
/// instruction, the index one past the last instruction of its segment.
/// A segment starts at instruction 0, at every branch target, after every
/// terminator, call of a defined function and Unreachable, and after
/// JitMaxSegment instructions.
std::vector<uint32_t> fuelSegmentEnds(const DecodedFunction &DF);

/// Marks the segment-private slots of \p DF, whose fuel segments are
/// \p SegEnd (fuelSegmentEnds): a slot defined once, read only later in
/// its defining segment, and neither an argument, a constant nor a
/// DecodedFunction::ReadFirstSlots entry. Compiled code keeps such a
/// value in a host register and writes it to the register file only on
/// the way to a shim (JitAbi.h). Indexed by slot, NumMutable entries.
std::vector<bool> segmentPrivateSlots(const DecodedFunction &DF,
                                      const std::vector<uint32_t> &SegEnd);

} // namespace smokestack

#endif // SMOKESTACK_JIT_JITCOMPILER_H
