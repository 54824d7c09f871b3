//===- vm/DecodedFunction.h - Pre-decoded function form --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat, cache-friendly execution form the interpreter's decoded engine
/// runs. A one-time decode pass (see Decoder.h) lowers every Instruction of
/// a Function into one DecodedInst whose operands are plain indices into a
/// per-invocation register file, so the hot dispatch loop performs zero
/// hash-map lookups and zero pointer-chasing cast<> chains:
///
///  - SSA values, arguments, and *constants* share one flat register file.
///    The constant pool (pre-masked ConstantInt bits, encoded ConstantFP
///    slots, resolved global addresses) is copied into the tail of the file
///    on function entry, so "operand fetch" is always `Regs[Index]`.
///  - Basic-block successors are resolved to instruction-array offsets;
///    branches are integer assignments to the instruction pointer.
///  - Per-opcode variants (e.g. Gep with/without an index, observed or not)
///    are split at decode time so the dispatch switch stays branch-lean.
///
/// Decoding is strictly 1:1 — one DecodedInst per IR instruction, no fusion
/// — so fuel accounting charges one step per IR instruction executed, and
/// ExecResult::Steps matches the frozen reference table of
/// tests/vm/DecodedDifferentialTest.cpp bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_DECODEDFUNCTION_H
#define SMOKESTACK_VM_DECODEDFUNCTION_H

#include "vm/Builtins.h"

#include <cstdint>
#include <vector>

namespace smokestack {

class Function;
class Instruction;

/// Flattened opcode space of the decoded engine. One IR opcode maps to one
/// or more decoded opcodes; the variant is chosen once at decode time.
enum class DecodedOp : uint8_t {
  AllocaStatic, ///< Src=AllocaInst; one element.
  AllocaVLA,    ///< Src=AllocaInst; A=element-count register.
  Load,         ///< A=pointer; Width=loaded bytes.
  Store,        ///< A=value, B=pointer; Width=stored bytes.
  GepConst,     ///< A=base; Imm=constant byte offset.
  GepIndex,     ///< A=base, B=index, C=scale; Imm=constant byte offset.
  GepConstObs,  ///< GepConst that reports a ".ss" variable address.
  GepIndexObs,  ///< GepIndex that reports a ".ss" variable address.
  // Integer binops (operand width == result width == Width).
  Add,
  Sub,
  Mul,
  UDiv,
  SDiv,
  URem,
  SRem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // Floating-point binops (Width 4 = float, 8 = double).
  FAdd,
  FSub,
  FMul,
  FDiv,
  ICmpInt,       ///< A,B=operands, C=ICmpInst::Predicate; Width=operand bytes.
  ICmpFloat,     ///< Same with ordered FP predicates.
  CastCopy,      ///< Trunc/ZExt/Bitcast/PtrToInt/IntToPtr: mask to Width.
  CastSExt,      ///< C=source width; sign-extend then mask to Width.
  CastFPToSI,    ///< C=source FP width; convert then mask to Width.
  CastSIToFP,    ///< C=source width; encode into FP slot of Width.
  CastFPConvert, ///< FPExt/FPTrunc: C=source FP width, Width=dest FP width.
  Select,        ///< A=cond, B=true value, C=false value.
  Br,            ///< A=target instruction offset.
  CondBr,        ///< A=cond, B=true offset, C=false offset.
  Call,          ///< A=index into DecodedFunction::CallSites.
  Ret,           ///< A=value register.
  RetVoid,
  Unreachable,
};

/// One lowered instruction (fits in 40 bytes; the dispatch loop streams
/// these linearly except at taken branches).
struct DecodedInst {
  /// Register-index sentinel for "no destination".
  static constexpr uint32_t NoReg = 0xFFFFFFFFu;

  DecodedOp Op;
  /// Scalar byte width of the result (or operand, for compares/stores).
  /// 0 means "no masking" (floating-point results keep all 64 slot bits).
  uint8_t Width = 8;
  /// Destination register, or NoReg for void results.
  uint32_t Dest = NoReg;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  int64_t Imm = 0;
  /// Originating IR instruction, kept for allocas (observer callbacks and
  /// shared materialization) and observed geps (variable names). Never
  /// consulted on arithmetic paths.
  const Instruction *Src = nullptr;
};

struct DecodedFunction;

/// One direct call site; argument registers live in
/// DecodedFunction::CallArgRegs[ArgStart .. ArgStart+NumArgs).
struct DecodedCallSite {
  Function *Callee = nullptr;
  /// The callee's decoded form, bound once by the DecodedProgram that owns
  /// both functions; every direct call site has one. nullptr for builtins.
  const DecodedFunction *CalleeDF = nullptr;
  uint32_t ArgStart = 0;
  uint32_t NumArgs = 0;
  /// The builtin a declaration callee dispatches to (resolved from its
  /// name at decode time); BuiltinId::None for definitions.
  BuiltinId Builtin = BuiltinId::None;
};

/// A function lowered for the decoded engine. Immutable after decode; one
/// per (DecodedProgram, Function) pair.
struct DecodedFunction {
  Function *F = nullptr;
  /// F's position in its module, the dense key of the JIT code cache.
  uint32_t Index = 0;
  std::vector<DecodedInst> Insts;
  /// Pre-materialized constants, copied to Regs[NumMutable..NumSlots) on
  /// every entry. ConstantInt bits are pre-masked to their type width,
  /// ConstantFP values are pre-encoded into slots, and global variables are
  /// pre-resolved to their simulated addresses.
  std::vector<uint64_t> ConstPool;
  std::vector<DecodedCallSite> CallSites;
  std::vector<uint32_t> CallArgRegs;
  /// Per-argument mask width in bytes (0 = floating point, not masked),
  /// applied to each argument on entry.
  std::vector<uint8_t> ArgWidths;
  uint32_t NumMutable = 0; ///< Arguments + value-producing instructions.
  uint32_t NumSlots = 0;   ///< NumMutable + ConstPool.size().
  /// The instruction-result slots some path may read before the slot's
  /// defining instruction writes it, ascending. The verifier only asks
  /// that a value be defined somewhere, so a module can read a value on a
  /// path its definition does not dominate; such a read sees the zero the
  /// frame entry wrote. Every other result slot is written before any
  /// read on every path (a decode-time def-dominates-use analysis,
  /// Decoder.cpp), so an entry that writes the arguments and zeroes only
  /// these slots behaves exactly like one that zeroes the whole file. A
  /// slot the analysis cannot prove stays in this list.
  std::vector<uint32_t> ReadFirstSlots;
};

/// Calls \p Read on every register \p DI reads (constants included), in
/// operand order: A, B, C, or a call's arguments.
template <typename ReadFn>
inline void forEachRead(const DecodedFunction &DF, const DecodedInst &DI,
                        ReadFn Read) {
  switch (DI.Op) {
  case DecodedOp::AllocaStatic:
  case DecodedOp::Br:
  case DecodedOp::RetVoid:
  case DecodedOp::Unreachable:
    return;
  case DecodedOp::AllocaVLA:
  case DecodedOp::Load:
  case DecodedOp::GepConst:
  case DecodedOp::GepConstObs:
  case DecodedOp::CastCopy:
  case DecodedOp::CastSExt:
  case DecodedOp::CastFPToSI:
  case DecodedOp::CastSIToFP:
  case DecodedOp::CastFPConvert:
  case DecodedOp::CondBr:
  case DecodedOp::Ret:
    Read(DI.A);
    return;
  case DecodedOp::Store:
  case DecodedOp::GepIndex:
  case DecodedOp::GepIndexObs:
  case DecodedOp::Add:
  case DecodedOp::Sub:
  case DecodedOp::Mul:
  case DecodedOp::UDiv:
  case DecodedOp::SDiv:
  case DecodedOp::URem:
  case DecodedOp::SRem:
  case DecodedOp::And:
  case DecodedOp::Or:
  case DecodedOp::Xor:
  case DecodedOp::Shl:
  case DecodedOp::LShr:
  case DecodedOp::AShr:
  case DecodedOp::FAdd:
  case DecodedOp::FSub:
  case DecodedOp::FMul:
  case DecodedOp::FDiv:
  case DecodedOp::ICmpInt:
  case DecodedOp::ICmpFloat:
    Read(DI.A);
    Read(DI.B);
    return;
  case DecodedOp::Select:
    Read(DI.A);
    Read(DI.B);
    Read(DI.C);
    return;
  case DecodedOp::Call: {
    const DecodedCallSite &CS = DF.CallSites[DI.A];
    for (uint32_t I = 0; I != CS.NumArgs; ++I)
      Read(DF.CallArgRegs[CS.ArgStart + I]);
    return;
  }
  }
}

} // namespace smokestack

#endif // SMOKESTACK_VM_DECODEDFUNCTION_H
