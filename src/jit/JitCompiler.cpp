//===- jit/JitCompiler.cpp - DecodedFunction -> x86-64 stencils -----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One DecodedInst becomes one stencil instance: a fixed byte template with
// its holes patched in place (register-file disp32s, immediates, branch
// rel32s, shim addresses). The emitted body reproduces the decoded
// dispatch loop of Interpreter::callDecoded bit for bit:
//
//  * every fuel segment (see JitAbi.h) starts with a head that charges the
//    whole segment at once when no instruction in it could see fuel 0 or
//    a cancel-poll point, out of line (ssJitTryCharge) when fuel suffices
//    and no cancel is pending, and otherwise hands the segment to
//    ssJitInterpSegment; every trapping exit inside a segment refunds the
//    fuel charged for the instructions after it, so ExecResult::Steps and
//    every trap point land on the same instruction;
//  * a value that only its own segment reads stays in a host register
//    (JitAbi.h, "Segment-private values"), constant operands are
//    immediates, and every exit to the interpreter first writes the
//    values and constants it may read to the register file;
//  * smokestack.rand call sites draw through ssJitDraw, and a call of a
//    compiled function enters its code directly, writing the callee's
//    register file itself (JitAbi.h, "Native calls");
//  * hot opcodes (ALU, shifts, compares, selects, geps, casts, branches,
//    static allocas, stack-segment loads/stores, rodata loads) are
//    inlined; everything else — and every failing check of an inlined
//    stencil — funnels through the ssJitInterpOne shim, which runs the
//    decoded engine's own per-instruction code (Interpreter::execInst);
//  * inlined stores replicate SimMemory's touched-range bookkeeping so
//    the reset to the load state and request-boundary hygiene see
//    identical ranges.
//
// Layout of a compiled function:
//
//   [prologue]  pin rbx/r13/r14/r15/r12/rbp from the JitContext
//   [body]      per segment: its head, then one stencil per DecodedInst,
//               in decode order
//   [ool]       out-of-line slow paths for inlined stencils and for
//               segment heads
//   [refund]    one stub per distinct refund: give back fuel, then trap
//   [exit]      status 0 (returned) / 1 (trapped), restore, ret
//
//===----------------------------------------------------------------------===//

#include "jit/JitCompiler.h"

#include "ir/Instructions.h"
#include "jit/JitAbi.h"
#include "jit/JitCache.h"
#include "support/Casting.h"
#include "vm/DecodedFunction.h"
#include "vm/SimMemory.h"
#include "vm/SlotBits.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <tuple>

using namespace smokestack;

std::vector<uint32_t> smokestack::fuelSegmentEnds(const DecodedFunction &DF) {
  const uint32_t Size = static_cast<uint32_t>(DF.Insts.size());
  std::vector<bool> Head(Size + 1, false);
  for (uint32_t IP = 0; IP != Size; ++IP) {
    const DecodedInst &DI = DF.Insts[IP];
    switch (DI.Op) {
    case DecodedOp::Br:
      Head[DI.A] = true;
      break;
    case DecodedOp::CondBr:
      Head[DI.B] = Head[DI.C] = true;
      break;
    case DecodedOp::Ret:
    case DecodedOp::RetVoid:
    case DecodedOp::Unreachable:
      break;
    case DecodedOp::Call:
      if (DF.CallSites[DI.A].Builtin != BuiltinId::None)
        continue; // a builtin runs no instructions: same segment
      break;
    default:
      continue; // falls through to the next instruction, same segment
    }
    Head[IP + 1] = true;
  }
  std::vector<uint32_t> End(Size);
  for (uint32_t Start = 0, IP = 1; IP <= Size; ++IP) {
    if (IP != Size && !Head[IP] && IP - Start != JitMaxSegment)
      continue;
    std::fill(End.begin() + Start, End.begin() + IP, IP);
    Start = IP;
  }
  return End;
}

std::vector<bool>
smokestack::segmentPrivateSlots(const DecodedFunction &DF,
                                const std::vector<uint32_t> &SegEnd) {
  constexpr uint32_t NoDef = DecodedInst::NoReg;
  const uint32_t Size = static_cast<uint32_t>(DF.Insts.size());
  std::vector<uint32_t> DefAt(DF.NumMutable, NoDef);
  std::vector<bool> Private(DF.NumMutable, false);
  for (uint32_t IP = 0; IP != Size; ++IP) {
    uint32_t D = DF.Insts[IP].Dest;
    if (D == NoDef)
      continue;
    // A second definition disqualifies the slot for good. Arguments have
    // none (the frame entry writes them), so they never qualify.
    Private[D] = DefAt[D] == NoDef;
    DefAt[D] = IP;
  }
  for (uint32_t S : DF.ReadFirstSlots)
    Private[S] = false;
  for (uint32_t IP = 0; IP != Size; ++IP)
    forEachRead(DF, DF.Insts[IP], [&](uint32_t S) {
      if (S < DF.NumMutable &&
          (DefAt[S] == NoDef || DefAt[S] >= IP || SegEnd[DefAt[S]] != SegEnd[IP]))
        Private[S] = false;
    });
  return Private;
}

#if defined(__x86_64__) && !defined(_WIN32)

namespace {

// x86-64 register numbers (low 3 bits go in ModRM/SIB; bit 3 in REX).
enum HReg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Kinds of rel32 branch target, resolved once the whole body is laid out.
enum class Label {
  Inst,     ///< The head of the segment starting at a decoded instruction.
  TrapExit, ///< Status 1.
  OkExit,   ///< Status 0.
  Refund,   ///< Give back some fuel, then take TrapExit.
};

/// A minimal x86-64 byte emitter: just enough encoder to instantiate the
/// stencil set below. Every emit helper appends to Code; rel32 holes are
/// recorded and patched once all positions are known.
class Emitter {
public:
  std::vector<uint8_t> Code;

  struct Fixup {
    size_t Pos;     ///< Offset of the rel32 hole.
    Label L;
    uint32_t Value; ///< Instruction index (Inst) or fuel units (Refund).
  };
  std::vector<Fixup> Fixups;

  void u8(uint8_t B) { Code.push_back(B); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Code.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Code.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }

  size_t pos() const { return Code.size(); }

  /// REX prefix; emitted when any bit is set (W, or extended registers).
  void rex(bool W, uint8_t Reg, uint8_t Index, uint8_t Base) {
    uint8_t B = 0x40 | (W ? 8 : 0) | ((Reg >> 3) << 2) | ((Index >> 3) << 1) |
                (Base >> 3);
    if (B != 0x40 || W)
      u8(B);
  }

  /// ModRM(+SIB+disp) for [Base + Disp]. Handles the RSP/R12 SIB escape
  /// and the RBP/R13 mandatory-displacement cases.
  void mem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    uint8_t R = Reg & 7, B = Base & 7;
    uint8_t Mod;
    if (Disp == 0 && B != 5)
      Mod = 0;
    else if (Disp >= -128 && Disp <= 127)
      Mod = 1;
    else
      Mod = 2;
    u8(static_cast<uint8_t>((Mod << 6) | (R << 3) | B));
    if (B == 4)
      u8(0x24); // SIB: scale 1, no index, base
    if (Mod == 1)
      u8(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      u32(static_cast<uint32_t>(Disp));
  }

  /// ModRM+SIB for [Base + Index] (scale 1, no displacement; bases with
  /// low bits 101 would need a disp8 — unused here).
  void memIndex(uint8_t Reg, uint8_t Base, uint8_t Index) {
    assert((Base & 7) != 5 && "base needing disp8 unsupported");
    u8(static_cast<uint8_t>((0 << 6) | ((Reg & 7) << 3) | 4));
    u8(static_cast<uint8_t>((0 << 6) | ((Index & 7) << 3) | (Base & 7)));
  }

  void modrmReg(uint8_t Reg, uint8_t Rm) {
    u8(static_cast<uint8_t>(0xC0 | ((Reg & 7) << 3) | (Rm & 7)));
  }

  //===--- loads/stores against the register file [rbx + idx*8] ---------===//

  void loadSlot(uint8_t Dst, uint32_t Idx) { // mov Dst, [rbx + Idx*8]
    rex(true, Dst, 0, RBX);
    u8(0x8B);
    mem(Dst, RBX, static_cast<int32_t>(Idx) * 8);
  }
  void storeSlot(uint32_t Idx, uint8_t Src) { // mov [rbx + Idx*8], Src
    rex(true, Src, 0, RBX);
    u8(0x89);
    mem(Src, RBX, static_cast<int32_t>(Idx) * 8);
  }

  //===--- reg/reg and reg/mem ALU -------------------------------------===//

  void movRR(uint8_t Dst, uint8_t Src) { // mov Dst, Src (64-bit)
    rex(true, Src, 0, Dst);
    u8(0x89);
    modrmReg(Src, Dst);
  }
  /// Opcode is the r64, r/m64 form (add=0x03, sub=0x2B, and=0x23,
  /// or=0x0B, xor=0x33, cmp=0x3B).
  void aluRegSlot(uint8_t Op, uint8_t Dst, uint32_t Idx) {
    rex(true, Dst, 0, RBX);
    u8(Op);
    mem(Dst, RBX, static_cast<int32_t>(Idx) * 8);
  }
  /// Opcode is the r64, r/m64 form, as in aluRegSlot: op Dst, Src.
  void aluRR(uint8_t Op, uint8_t Dst, uint8_t Src) {
    rex(true, Dst, 0, Src);
    u8(Op);
    modrmReg(Dst, Src);
  }
  void imulRR(uint8_t Dst, uint8_t Src) { // imul Dst, Src
    rex(true, Dst, 0, Src);
    u8(0x0F);
    u8(0xAF);
    modrmReg(Dst, Src);
  }
  void imulRegSlot(uint8_t Dst, uint32_t Idx) { // imul Dst, [rbx+Idx*8]
    rex(true, Dst, 0, RBX);
    u8(0x0F);
    u8(0xAF);
    mem(Dst, RBX, static_cast<int32_t>(Idx) * 8);
  }
  void movImm64(uint8_t Dst, uint64_t V) { // movabs Dst, V
    rex(true, 0, 0, Dst);
    u8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    u64(V);
  }
  void movImm32(uint8_t Dst, uint32_t V) { // mov Dst32, V (zero-extends)
    rex(false, 0, 0, Dst);
    u8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    u32(V);
  }
  /// Dst = V in the shortest encoding; leaves the flags alone.
  void movImm(uint8_t Dst, uint64_t V) {
    if (V <= std::numeric_limits<uint32_t>::max()) {
      movImm32(Dst, static_cast<uint32_t>(V));
    } else if (static_cast<int64_t>(V) < 0 &&
               static_cast<int64_t>(V) >= std::numeric_limits<int32_t>::min()) {
      rex(true, 0, 0, Dst); // mov Dst, imm32 (sign-extended)
      u8(0xC7);
      modrmReg(0, Dst);
      u32(static_cast<uint32_t>(V));
    } else {
      movImm64(Dst, V);
    }
  }
  void addRR(uint8_t Dst, uint8_t Src) { // add Dst, Src
    rex(true, Src, 0, Dst);
    u8(0x01);
    modrmReg(Src, Dst);
  }
  /// add Dst, Imm when it fits an imm32 (sign-extended); else via scratch
  /// (must differ from Dst).
  void addImm(uint8_t Dst, int64_t Imm, uint8_t Scratch) {
    if (Imm == 0)
      return;
    if (Imm >= std::numeric_limits<int32_t>::min() &&
        Imm <= std::numeric_limits<int32_t>::max()) {
      rex(true, 0, 0, Dst);
      u8(0x81);
      modrmReg(0, Dst); // /0 = add
      u32(static_cast<uint32_t>(static_cast<int32_t>(Imm)));
    } else {
      movImm64(Scratch, static_cast<uint64_t>(Imm));
      addRR(Dst, Scratch);
    }
  }
  /// 81 /Ext Reg, imm32 (sign-extended): 0=add 4=and 5=sub 7=cmp.
  void aluImm32(uint8_t Ext, uint8_t Reg, uint32_t V) {
    rex(true, 0, 0, Reg);
    u8(0x81);
    modrmReg(Ext, Reg);
    u32(V);
  }
  void cmpImm32(uint8_t Reg, uint32_t V) { aluImm32(7, Reg, V); }
  void cmpRR(uint8_t A, uint8_t B) { // cmp A, B
    rex(true, B, 0, A);
    u8(0x39);
    modrmReg(B, A);
  }
  void cmpRegMem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    rex(true, Reg, 0, Base); // cmp Reg, [Base+Disp]
    u8(0x3B);
    mem(Reg, Base, Disp);
  }
  /// Opcode is the r64, r/m64 form, as in aluRegSlot.
  void aluRegMem(uint8_t Op, uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(true, Dst, 0, Base);
    u8(Op);
    mem(Dst, Base, Disp);
  }
  void storeMemImm32(uint8_t Base, int32_t Disp, uint32_t V) {
    rex(true, 0, 0, Base); // mov qword [Base+Disp], imm32 (sign-extended)
    u8(0xC7);
    mem(0, Base, Disp);
    u32(V);
  }
  void testRR(uint8_t Reg) { // test Reg, Reg
    rex(true, Reg, 0, Reg);
    u8(0x85);
    modrmReg(Reg, Reg);
  }
  void cmpMemZero(uint8_t Base, int32_t Disp) { // cmp qword [Base+Disp], 0
    rex(true, 0, 0, Base);
    u8(0x83);
    mem(7, Base, Disp); // /7 = cmp, imm8
    u8(0x00);
  }
  void cmpSlotZero(uint32_t Idx) { // cmp qword [rbx + Idx*8], 0
    cmpMemZero(RBX, static_cast<int32_t>(Idx) * 8);
  }
  void loadMem(uint8_t Dst, uint8_t Base, int32_t Disp) { // mov Dst, [..]
    rex(true, Dst, 0, Base);
    u8(0x8B);
    mem(Dst, Base, Disp);
  }
  void storeMem(uint8_t Base, int32_t Disp, uint8_t Src) { // mov [..], Src
    rex(true, Src, 0, Base);
    u8(0x89);
    mem(Src, Base, Disp);
  }
  /// Zero-extending W-byte load into rax from [Base + Index + Disp].
  void loadIndexed(unsigned W, uint8_t Base, uint8_t Index = RCX,
                   int32_t Disp = 0) {
    if (W == 1) { // movzx eax, byte [..]
      rex(false, RAX, Index, Base);
      u8(0x0F);
      u8(0xB6);
    } else if (W == 2) { // movzx eax, word [..]
      rex(false, RAX, Index, Base);
      u8(0x0F);
      u8(0xB7);
    } else if (W == 4) { // mov eax, dword [..]
      rex(false, RAX, Index, Base);
      u8(0x8B);
    } else { // mov rax, qword [..]
      rex(true, RAX, Index, Base);
      u8(0x8B);
    }
    if (Disp == 0) {
      memIndex(RAX, Base, Index);
      return;
    }
    // ModRM mod=10 rm=SIB, SIB scale 1, disp32.
    u8(static_cast<uint8_t>((2 << 6) | ((RAX & 7) << 3) | 4));
    u8(static_cast<uint8_t>(((Index & 7) << 3) | (Base & 7)));
    u32(static_cast<uint32_t>(Disp));
  }
  /// 81 /Ext qword [Base], imm32 (sign-extended): 0=add 5=sub.
  void aluMemImm32(uint8_t Ext, uint8_t Base, uint32_t V) {
    rex(true, 0, 0, Base);
    u8(0x81);
    mem(Ext, Base, 0);
    u32(V);
  }
  void shiftCl(uint8_t Reg, uint8_t Sub) { // D3 /Sub: 4=shl 5=shr 7=sar
    rex(true, 0, 0, Reg);
    u8(0xD3);
    modrmReg(Sub, Reg);
  }
  void sarImm(uint8_t Reg, uint8_t N) { // sar Reg, N
    rex(true, 0, 0, Reg);
    u8(0xC1);
    modrmReg(7, Reg);
    u8(N);
  }
  void cmovRR(uint8_t Cc, uint8_t Dst, uint8_t Src) { // cmovcc Dst, Src
    rex(true, Dst, 0, Src);
    u8(0x0F);
    u8(0x40 | Cc);
    modrmReg(Dst, Src);
  }
  void setccAl(uint8_t Cc) { // setcc al
    u8(0x0F);
    u8(0x90 | Cc);
    u8(0xC0);
  }
  void imulImm32(uint8_t Dst, uint8_t Src, uint32_t V) {
    rex(true, Dst, 0, Src); // imul Dst, Src, imm32 (sign-extended)
    u8(0x69);
    modrmReg(Dst, Src);
    u32(V);
  }

  //===--- width conversions on rax/rdx --------------------------------===//

  /// Zero upper bits so rax holds maskToWidth(rax, W).
  void maskAcc(unsigned W) {
    if (W >= 8)
      return;
    if (W == 4) { // mov eax, eax
      u8(0x89);
      u8(0xC0);
    } else if (W == 2) { // movzx eax, ax
      u8(0x0F);
      u8(0xB7);
      u8(0xC0);
    } else { // movzx eax, al
      u8(0x0F);
      u8(0xB6);
      u8(0xC0);
    }
  }
  /// Sign-extend the low W bytes of Reg (rax or rdx) to 64 bits.
  void sext(uint8_t Reg, unsigned W) {
    if (W >= 8)
      return;
    uint8_t Rm = static_cast<uint8_t>(0xC0 | ((Reg & 7) << 3) | (Reg & 7));
    if (W == 4) { // movsxd Reg, Reg32
      u8(0x48);
      u8(0x63);
      u8(Rm);
    } else if (W == 2) { // movsx Reg, Reg16
      u8(0x48);
      u8(0x0F);
      u8(0xBF);
      u8(Rm);
    } else { // movsx Reg, Reg8
      u8(0x48);
      u8(0x0F);
      u8(0xBE);
      u8(Rm);
    }
  }

  //===--- control flow -------------------------------------------------===//

  void jccLabel(uint8_t Cc, Label L, uint32_t Value = 0) { // jcc rel32
    u8(0x0F);
    u8(0x80 | Cc);
    Fixups.push_back({pos(), L, Value});
    u32(0);
  }
  void jmpLabel(Label L, uint32_t Value = 0) { // jmp rel32
    u8(0xE9);
    Fixups.push_back({pos(), L, Value});
    u32(0);
  }
  /// jcc rel32 to a code offset known later; returns the hole position.
  size_t jccHole(uint8_t Cc) {
    u8(0x0F);
    u8(0x80 | Cc);
    size_t P = pos();
    u32(0);
    return P;
  }
  size_t jmpHole() {
    u8(0xE9);
    size_t P = pos();
    u32(0);
    return P;
  }
  void patchRel32(size_t Hole, size_t Target) {
    int64_t Rel = static_cast<int64_t>(Target) -
                  static_cast<int64_t>(Hole + 4);
    assert(Rel >= std::numeric_limits<int32_t>::min() &&
           Rel <= std::numeric_limits<int32_t>::max());
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
    std::memcpy(&Code[Hole], &V, 4);
  }
  void jmpRel8(int8_t Rel) {
    u8(0xEB);
    u8(static_cast<uint8_t>(Rel));
  }
  void jccRel8(uint8_t Cc, int8_t Rel) {
    u8(0x70 | Cc);
    u8(static_cast<uint8_t>(Rel));
  }

  /// mov rdi, r13; mov rsi, rbx; mov edx, IP; movabs rax, Fn; call rax.
  void callShim3(uint64_t Fn, uint32_t IP) {
    movRR(RDI, R13);
    movRR(RSI, RBX);
    movImm32(RDX, IP);
    movImm64(RAX, Fn);
    u8(0xFF);
    u8(0xD0); // call rax
  }
  void testEax() { // test eax, eax
    u8(0x85);
    u8(0xC0);
  }
};

// Condition codes.
constexpr uint8_t CC_E = 0x4, CC_NE = 0x5, CC_B = 0x2, CC_AE = 0x3,
                  CC_BE = 0x6, CC_A = 0x7, CC_L = 0xC, CC_GE = 0xD,
                  CC_LE = 0xE, CC_G = 0xF, CC_Z = 0x4, CC_NZ = 0x5;

uint8_t setccForPredicate(ICmpInst::Predicate P) {
  switch (P) {
  case ICmpInst::Predicate::EQ:
    return CC_E;
  case ICmpInst::Predicate::NE:
    return CC_NE;
  case ICmpInst::Predicate::ULT:
    return CC_B;
  case ICmpInst::Predicate::ULE:
    return CC_BE;
  case ICmpInst::Predicate::UGT:
    return CC_A;
  case ICmpInst::Predicate::UGE:
    return CC_AE;
  case ICmpInst::Predicate::SLT:
    return CC_L;
  case ICmpInst::Predicate::SLE:
    return CC_LE;
  case ICmpInst::Predicate::SGT:
    return CC_G;
  case ICmpInst::Predicate::SGE:
    return CC_GE;
  default:
    return 0xFF; // float predicate: not inlineable
  }
}

bool isSignedPredicate(ICmpInst::Predicate P) {
  switch (P) {
  case ICmpInst::Predicate::SLT:
  case ICmpInst::Predicate::SLE:
  case ICmpInst::Predicate::SGT:
  case ICmpInst::Predicate::SGE:
    return true;
  default:
    return false;
  }
}

/// The P-BOX rows of a function (JitAbi.h, "P-BOX rows").
struct RowPlan {
  static constexpr uint32_t NoRow = 0xFFFFFFFFu;
  struct Row {
    uint32_t First = 0;   ///< The row's first load, which checks the bounds.
    int64_t FirstImm = 0; ///< The gep offset of First's address.
    int64_t Lo = 0;       ///< Least gep offset of the row.
    int64_t Span = 0;     ///< Bytes from Lo to the end of the farthest load.
  };
  std::vector<Row> Rows;
  /// Per instruction: the index of the row a load belongs to, or NoRow.
  std::vector<uint32_t> RowOf;
};

/// Finds the P-BOX rows of \p DF: loads of one fuel segment, never its
/// last instruction, whose address is a GepIndex earlier in the segment
/// off one constant base inside the read-only data segment, with one
/// index register and scale, while the index register is not redefined
/// between the row's first gep and its last load. So every address of a
/// row is base + index * scale + its gep's offset, for one index value.
RowPlan planRows(const DecodedFunction &DF,
                 const std::vector<uint32_t> &SegEnd) {
  const uint32_t Size = static_cast<uint32_t>(DF.Insts.size());
  constexpr uint32_t NoDef = 0xFFFFFFFFu;
  std::vector<uint32_t> DefAt(DF.NumMutable, NoDef);
  for (uint32_t IP = 0; IP != Size; ++IP)
    if (DF.Insts[IP].Dest != DecodedInst::NoReg)
      DefAt[DF.Insts[IP].Dest] = IP;

  struct Key {
    uint32_t End, Base, Index, Scale;
    bool operator<(const Key &O) const {
      return std::tie(End, Base, Index, Scale) <
             std::tie(O.End, O.Base, O.Index, O.Scale);
    }
  };
  struct Members {
    uint32_t FirstGep = NoDef;
    int64_t FirstImm = 0;
    int64_t Lo = std::numeric_limits<int64_t>::max();
    int64_t Hi = std::numeric_limits<int64_t>::min();
    std::vector<uint32_t> Loads; ///< Ascending.
  };
  std::map<Key, Members> Found;
  RowPlan P;
  P.RowOf.assign(Size, RowPlan::NoRow);
  for (uint32_t IP = 0; IP != Size; ++IP) {
    const DecodedInst &DI = DF.Insts[IP];
    if (DI.Op != DecodedOp::Load || IP + 1 == SegEnd[IP] ||
        DI.A >= DF.NumMutable || DefAt[DI.A] == NoDef)
      continue;
    uint32_t G = DefAt[DI.A];
    const DecodedInst &Gep = DF.Insts[G];
    if (G > IP || SegEnd[G] != SegEnd[IP] || Gep.Op != DecodedOp::GepIndex ||
        Gep.A < DF.NumMutable || Gep.Imm < -(int64_t(1) << 30) ||
        Gep.Imm > (int64_t(1) << 30))
      continue;
    uint64_t Base = DF.ConstPool[Gep.A - DF.NumMutable];
    if (Base - MemoryMap::RODataBase >= MemoryMap::RODataSize)
      continue;
    Members &M = Found[{SegEnd[IP], Gep.A, Gep.B, Gep.C}];
    if (M.Loads.empty())
      M.FirstImm = Gep.Imm;
    M.FirstGep = std::min(M.FirstGep, G);
    M.Lo = std::min(M.Lo, Gep.Imm);
    M.Hi = std::max(M.Hi, Gep.Imm + DI.Width);
    M.Loads.push_back(IP);
  }
  for (const auto &[K, M] : Found) {
    uint32_t IndexDef = K.Index < DF.NumMutable ? DefAt[K.Index] : NoDef;
    if (IndexDef != NoDef && IndexDef >= M.FirstGep &&
        IndexDef <= M.Loads.back())
      continue;
    if (M.Hi - M.Lo > static_cast<int64_t>(MemoryMap::RODataSize))
      continue;
    for (uint32_t IP : M.Loads)
      P.RowOf[IP] = static_cast<uint32_t>(P.Rows.size());
    P.Rows.push_back({M.Loads.front(), M.FirstImm, M.Lo, M.Hi - M.Lo});
  }
  return P;
}

int32_t ctxOffset(size_t Off) { return static_cast<int32_t>(Off); }

/// The JitFn entry, from C++ (rdi = JitContext*, rsi = Regs): pins the six
/// callee-saved registers per JitAbi.h, calls the native entry right
/// after it (rsp is 16-byte aligned at the call), and restores them. The
/// same bytes start every compiled function.
void emitCEntry(Emitter &E) {
  E.u8(0x55);             // push rbp
  E.u8(0x53);             // push rbx
  E.u8(0x41); E.u8(0x54); // push r12
  E.u8(0x41); E.u8(0x55); // push r13
  E.u8(0x41); E.u8(0x56); // push r14
  E.u8(0x41); E.u8(0x57); // push r15
  E.u8(0x48); E.u8(0x83); E.u8(0xEC); E.u8(0x08); // sub rsp, 8
  E.movRR(RBX, RSI); // rbx = Regs
  E.movRR(R13, RDI); // r13 = Ctx
  E.loadMem(R14, RDI, ctxOffset(offsetof(JitContext, FuelLeft)));
  E.loadMem(R15, RDI, ctxOffset(offsetof(JitContext, StackHost)));
  E.loadMem(R12, RDI, ctxOffset(offsetof(JitContext, StackTouchedLo)));
  E.loadMem(RBP, RDI, ctxOffset(offsetof(JitContext, StackTouchedHi)));
  E.u8(0xE8); // call rel32: the native entry, right after this stub
  size_t Hole = E.pos();
  E.u32(0);
  E.u8(0x48); E.u8(0x83); E.u8(0xC4); E.u8(0x08); // add rsp, 8
  E.u8(0x41); E.u8(0x5F); // pop r15
  E.u8(0x41); E.u8(0x5E); // pop r14
  E.u8(0x41); E.u8(0x5D); // pop r13
  E.u8(0x41); E.u8(0x5C); // pop r12
  E.u8(0x5B);             // pop rbx
  E.u8(0x5D);             // pop rbp
  E.u8(0xC3);             // ret
  E.patchRel32(Hole, E.pos());
}

/// Offset of the native entry: where compiled callers enter, with the
/// registers already pinned and rbx at the callee's register file.
const size_t JitNativeEntryOffset = [] {
  Emitter E;
  emitCEntry(E);
  return E.pos();
}();

bool fitsImm32(uint64_t V) {
  int64_t S = static_cast<int64_t>(V);
  return S >= std::numeric_limits<int32_t>::min() &&
         S <= std::numeric_limits<int32_t>::max();
}

/// One pending slow path of a segment head (ssJitInterpSegment).
struct SegmentSlowPath {
  size_t JccHole = 0; ///< rel32 hole of the head's fuel test.
  uint32_t Start = 0;
  uint32_t N = 0;
};

constexpr uint32_t NoReg = DecodedInst::NoReg;

/// The registers that keep a segment-private value past the next stencil
/// (JitAbi.h): the caller-saved ones no stencil uses as scratch.
constexpr HReg PoolRegs[] = {RDI, R8, R9, R10, R11};
constexpr size_t NumPool = std::size(PoolRegs);

/// Where compiled code keeps each mutable slot's value.
struct SlotPlan {
  /// Home values besides a PoolRegs index.
  static constexpr uint8_t InFile = 0xFF; ///< Stored at its definition.
  static constexpr uint8_t InRax = 0xFE;  ///< In rax, for the next stencil.
  static constexpr uint8_t Unread = 0xFD; ///< Never read: nothing kept.
  std::vector<uint8_t> Home;
  /// The last instruction that reads the slot, or NoReg.
  std::vector<uint32_t> LastRead;
  /// Per instruction: the first instruction of its segment.
  std::vector<uint32_t> SegStart;
};

/// True when the stencil of \p DI reads slot \p S before it writes rax
/// and, if it has an out-of-line exit, while rax still holds it: then a
/// value the previous stencil left in rax needs no other home.
bool readsFromRax(const DecodedFunction &DF, const DecodedInst &DI,
                  uint32_t S) {
  switch (DI.Op) {
  case DecodedOp::Add:
  case DecodedOp::Sub:
  case DecodedOp::Mul:
  case DecodedOp::And:
  case DecodedOp::Or:
  case DecodedOp::Xor:
    return DI.B != S; // B is read after rax = A
  case DecodedOp::Select:
    return DI.A != S; // the condition is tested after rax = B
  case DecodedOp::Store:
    return DI.A != S; // the value sits in rdx at the out-of-line exit
  case DecodedOp::Call: {
    // A native call reads its arguments in order, and masking one
    // overwrites rax: only the first may come from there.
    const DecodedCallSite &CS = DF.CallSites[DI.A];
    const uint32_t *Args = DF.CallArgRegs.data() + CS.ArgStart;
    return CS.Builtin != BuiltinId::None ||
           std::find(Args + 1, Args + CS.NumArgs, S) == Args + CS.NumArgs;
  }
  default:
    return true;
  }
}

/// Gives every segment-private slot of \p DF a home: rax when the next
/// stencil is its only reader and takes it from there, else a free pool
/// register, else the register file. A pool register is free again once
/// the last read of its value has run, so the reader's own result may
/// take it.
SlotPlan planSlots(const DecodedFunction &DF,
                   const std::vector<uint32_t> &SegEnd) {
  const uint32_t Size = static_cast<uint32_t>(DF.Insts.size());
  const std::vector<bool> Private = segmentPrivateSlots(DF, SegEnd);
  SlotPlan P;
  P.Home.assign(DF.NumMutable, SlotPlan::InFile);
  P.LastRead.assign(DF.NumMutable, NoReg);
  P.SegStart.resize(Size);
  for (uint32_t IP = 0; IP != Size; ++IP)
    forEachRead(DF, DF.Insts[IP], [&](uint32_t S) {
      if (S < DF.NumMutable)
        P.LastRead[S] = IP;
    });
  std::array<uint32_t, NumPool> Holds;
  for (uint32_t IP = 0; IP != Size; ++IP) {
    bool Head = IP == 0 || SegEnd[IP - 1] == IP;
    P.SegStart[IP] = Head ? IP : P.SegStart[IP - 1];
    if (Head)
      Holds.fill(NoReg);
    for (uint32_t &S : Holds)
      if (S != NoReg && P.LastRead[S] <= IP)
        S = NoReg;
    uint32_t D = DF.Insts[IP].Dest;
    if (D == NoReg || !Private[D])
      continue;
    if (P.LastRead[D] == NoReg) {
      P.Home[D] = SlotPlan::Unread;
      continue;
    }
    if (P.LastRead[D] == IP + 1 && readsFromRax(DF, DF.Insts[IP + 1], D)) {
      P.Home[D] = SlotPlan::InRax;
      continue;
    }
    for (size_t R = 0; R != NumPool; ++R)
      if (Holds[R] == NoReg) {
        Holds[R] = D;
        P.Home[D] = static_cast<uint8_t>(R);
        break;
      }
  }
  return P;
}

/// The values compiled code holds in registers at one point: rax's (any
/// slot, or NoReg) and each pool register's (a private value, or NoReg).
struct RegState {
  uint32_t Rax = NoReg;
  std::array<uint32_t, NumPool> Pool;
  RegState() { Pool.fill(NoReg); }
  bool operator==(const RegState &O) const {
    return Rax == O.Rax && Pool == O.Pool;
  }
};

/// One pending out-of-line slow path of an inlined stencil.
struct OolBlock {
  std::vector<size_t> JccHoles; ///< rel32 holes of the fast path's exits.
  size_t Resume = 0;            ///< Code offset to jump back to.
  /// A stack-segment load's rejoin point for a read-only-segment hit:
  /// before the stencil keeps its result, which is then in rax.
  size_t Join = 0;
  uint32_t IP = 0; ///< Decoded-instruction index for the shim.
  /// Nonzero for a P-BOX row's failed bounds check: run [IP, RangeEnd)
  /// through ssJitInterpRange, then resume at RangeEnd's body.
  uint32_t RangeEnd = 0;
  RegState Spill;  ///< Written to the register file before the shim.
  /// Read back before jumping to Resume (a row fallback resumes at
  /// RangeEnd's body and reads back AtLast's state instead).
  RegState Reload;
};

/// A register-file operand as the stencils read it: a slot in the file,
/// a host register, or an immediate (a constant).
struct Opnd {
  enum Kind : uint8_t { Mem, Reg, Imm } K;
  uint8_t R = 0;
  uint32_t Slot = 0;
  uint64_t V = 0;
};

/// Compiles one function. The loop over its instructions tracks which
/// slot rax holds (InRax); the plan says where every other value lives.
class FunctionCompiler {
public:
  FunctionCompiler(const DecodedFunction &DF, JitCache &Cache)
      : DF(DF), Cache(Cache), SegEnd(fuelSegmentEnds(DF)),
        Rows(planRows(DF, SegEnd)), Slots(planSlots(DF, SegEnd)),
        HeadOff(DF.Insts.size(), 0), BodyOff(DF.Insts.size(), 0) {}

  std::vector<uint8_t> compile();

private:
  const DecodedFunction &DF;
  JitCache &Cache;
  const std::vector<uint32_t> SegEnd;
  const RowPlan Rows;
  const SlotPlan Slots;
  Emitter E;
  // Code offset of each instruction's segment head (segment starts only;
  // branches and head fall-through land there) and of its body.
  std::vector<size_t> HeadOff, BodyOff;
  std::vector<OolBlock> Ools;
  std::vector<SegmentSlowPath> SlowPaths;
  /// The registers at the body of each segment's last instruction, where
  /// the head's slow path and a row's fallback resume.
  std::map<uint32_t, RegState> AtLast;
  /// The slot whose value rax holds right now, or NoReg.
  uint32_t InRax = NoReg;
  /// Set by a stencil that leaves its result in rax.
  uint32_t Out = NoReg;

  bool isConst(uint32_t S) const { return S >= DF.NumMutable; }
  uint64_t constOf(uint32_t S) const { return DF.ConstPool[S - DF.NumMutable]; }

  /// Where slot \p S is read from at this point of the stencil.
  Opnd opnd(uint32_t S) const {
    if (isConst(S))
      return {Opnd::Imm, 0, S, constOf(S)};
    if (S == InRax)
      return {Opnd::Reg, RAX, S};
    uint8_t H = Slots.Home[S];
    if (H < NumPool)
      return {Opnd::Reg, PoolRegs[H], S};
    assert(H == SlotPlan::InFile && "a value kept in rax was overwritten");
    return {Opnd::Mem, 0, S};
  }
  void movTo(uint8_t Dst, const Opnd &O) {
    switch (O.K) {
    case Opnd::Mem:
      E.loadSlot(Dst, O.Slot);
      break;
    case Opnd::Reg:
      if (O.R != Dst)
        E.movRR(Dst, O.R);
      break;
    case Opnd::Imm:
      E.movImm(Dst, O.V);
      break;
    }
    if (Dst == RAX)
      InRax = O.K == Opnd::Imm ? NoReg : O.Slot;
  }
  void loadRax(uint32_t S) {
    if (S != InRax)
      movTo(RAX, opnd(S));
  }
  /// Rax is about to hold something other than a slot's value.
  void clobberRax() { InRax = NoReg; }
  /// Op Dst, O with Op the r64, r/m64 opcode and Ext its 81 /Ext form;
  /// a 64-bit immediate goes through rcx.
  void alu(uint8_t Op, uint8_t Ext, uint8_t Dst, const Opnd &O) {
    if (O.K == Opnd::Mem) {
      E.aluRegSlot(Op, Dst, O.Slot);
    } else if (O.K == Opnd::Reg) {
      E.aluRR(Op, Dst, O.R);
    } else if (fitsImm32(O.V)) {
      E.aluImm32(Ext, Dst, static_cast<uint32_t>(O.V));
    } else {
      E.movImm64(RCX, O.V);
      E.aluRR(Op, Dst, RCX);
    }
  }
  void imul(uint8_t Dst, const Opnd &O) {
    if (O.K == Opnd::Mem) {
      E.imulRegSlot(Dst, O.Slot);
    } else if (O.K == Opnd::Reg) {
      E.imulRR(Dst, O.R);
    } else if (fitsImm32(O.V)) {
      E.imulImm32(Dst, Dst, static_cast<uint32_t>(O.V));
    } else {
      E.movImm64(RCX, O.V);
      E.imulRR(Dst, RCX);
    }
  }
  /// Sets ZF when O is zero (through rcx for an immediate).
  void testZero(const Opnd &O) {
    if (O.K == Opnd::Mem) {
      E.cmpSlotZero(O.Slot);
      return;
    }
    uint8_t R = O.R;
    if (O.K == Opnd::Imm) {
      E.movImm(RCX, O.V);
      R = RCX;
    }
    E.testRR(R);
  }

  /// The stencil's last step, with the result \p Dest in rax: keep it at
  /// its home (the register file only when the plan says so).
  void defRax(uint32_t Dest) {
    uint8_t H = Slots.Home[Dest];
    if (H == SlotPlan::Unread) {
      clobberRax();
      return;
    }
    if (H == SlotPlan::InFile)
      E.storeSlot(Dest, RAX);
    else if (H < NumPool)
      E.movRR(PoolRegs[H], RAX);
    InRax = Out = Dest;
  }

  /// The pool registers' values inside IP's stencil — before its result
  /// is defined, or after it when \p After — with rax holding \p Rax.
  RegState stateAt(uint32_t IP, bool After, uint32_t Rax) const {
    RegState St;
    St.Rax = Rax;
    for (uint32_t D = Slots.SegStart[IP]; D <= IP; ++D) {
      uint32_t S = DF.Insts[D].Dest;
      if (S == NoReg || Slots.Home[S] >= NumPool)
        continue;
      if (After ? Slots.LastRead[S] > IP : D < IP && Slots.LastRead[S] >= IP)
        St.Pool[Slots.Home[S]] = S;
    }
    return St;
  }
  /// Writes the private values of \p St to the register file.
  void spill(const RegState &St) {
    for (size_t R = 0; R != NumPool; ++R)
      if (St.Pool[R] != NoReg)
        E.storeSlot(St.Pool[R], PoolRegs[R]);
    if (St.Rax != NoReg && Slots.Home[St.Rax] == SlotPlan::InRax)
      E.storeSlot(St.Rax, RAX);
  }
  /// Reads every value of \p St back from the register file.
  void reload(const RegState &St) {
    for (size_t R = 0; R != NumPool; ++R)
      if (St.Pool[R] != NoReg)
        E.loadSlot(PoolRegs[R], St.Pool[R]);
    if (St.Rax != NoReg)
      E.loadSlot(RAX, St.Rax);
  }
  /// Writes the constants DF.Insts[From, To) read to the register file,
  /// where a shim reads them (JitAbi.h: a natively entered file has none).
  void writeConsts(uint32_t From, uint32_t To) {
    std::vector<bool> Done(DF.ConstPool.size(), false);
    for (uint32_t IP = From; IP != To; ++IP)
      forEachRead(DF, DF.Insts[IP], [&](uint32_t S) {
        if (!isConst(S) || Done[S - DF.NumMutable])
          return;
        Done[S - DF.NumMutable] = true;
        uint64_t V = constOf(S);
        if (fitsImm32(V)) {
          E.storeMemImm32(RBX, static_cast<int32_t>(S) * 8,
                          static_cast<uint32_t>(V));
        } else {
          E.movImm64(RCX, V);
          E.storeSlot(S, RCX);
        }
      });
  }

  /// After a shim call for instruction IP: on status 1, give back the fuel
  /// charged for the rest of IP's segment, then take the trap exit.
  void exitOnTrap(uint32_t IP) {
    E.testEax();
    uint32_t Refund = SegEnd[IP] - IP - 1;
    if (Refund)
      E.jccLabel(CC_NZ, Label::Refund, Refund);
    else
      E.jccLabel(CC_NZ, Label::TrapExit);
  }
  /// Opens an out-of-line shim path for instruction IP: the fast path jumps
  /// to it on condition Cc (patched once the ool section is laid out). The
  /// path first spills the private values in registers here, unless
  /// \p Spilled says the stencil did so already.
  void oolExit(uint8_t Cc, uint32_t IP, bool Spilled = false) {
    RegState St = Spilled ? RegState() : stateAt(IP, false, InRax);
    if (Ools.empty() || Ools.back().IP != IP) {
      Ools.push_back({});
      Ools.back().IP = IP;
      Ools.back().Spill = St;
    }
    assert(Ools.back().Spill == St && "one spill set per out-of-line path");
    Ools.back().JccHoles.push_back(E.jccHole(Cc));
  }
  /// Runs instruction IP through the shim \p Fn in line: spill, call,
  /// then read back what the rest of the segment keeps in registers,
  /// IP's result included (the shim wrote it to the file).
  void shimInst(uint32_t IP, uint64_t Fn) {
    spill(stateAt(IP, false, InRax));
    writeConsts(IP, IP + 1);
    E.callShim3(Fn, IP);
    exitOnTrap(IP);
    clobberRax();
    RegState After = stateAt(IP, true, NoReg);
    uint32_t D = DF.Insts[IP].Dest;
    if (D != NoReg && Slots.Home[D] == SlotPlan::InRax)
      After.Rax = Out = D;
    reload(After);
  }

  void emitInst(uint32_t IP);
  void emitRandCall(uint32_t IP, const DecodedInst &DI);
  void emitNativeCall(uint32_t IP, const DecodedInst &DI,
                      const DecodedCallSite &CS);
  void emitCalleeFile(const DecodedCallSite &CS, const DecodedFunction &Callee);
  void emitOutOfLine();
};

/// Interpreter::callDecoded's entry sequence for a compiled callee, in
/// native code: with the callee file's base in rsi, writes the masked
/// arguments from the caller's operands and zeroes only the result slots
/// some path reads before writing (DecodedFunction::ReadFirstSlots) — one
/// store per slot or adjacent slot pair. The callee's constants stay out
/// of its file: its code holds them as immediates, and its shim exits
/// write the ones they read. Clobbers rax, rcx and xmm0.
void FunctionCompiler::emitCalleeFile(const DecodedCallSite &CS,
                                      const DecodedFunction &Callee) {
  const uint32_t *ArgRegs = DF.CallArgRegs.data() + CS.ArgStart;
  for (uint32_t I = 0; I != CS.NumArgs; ++I) {
    Opnd O = opnd(ArgRegs[I]);
    auto Off = static_cast<int32_t>(I * 8);
    unsigned W = Callee.ArgWidths[I];
    if (W != 0 && W < 8) {
      movTo(RAX, O);
      E.maskAcc(W);
      clobberRax();
      E.storeMem(RSI, Off, RAX);
    } else if (O.K == Opnd::Reg) {
      E.storeMem(RSI, Off, O.R);
    } else if (O.K == Opnd::Imm && fitsImm32(O.V)) {
      E.storeMemImm32(RSI, Off, static_cast<uint32_t>(O.V));
    } else {
      movTo(RAX, O);
      E.storeMem(RSI, Off, RAX);
    }
  }
  const std::vector<uint32_t> &Zero = Callee.ReadFirstSlots;
  bool XmmZeroed = false;
  for (size_t Z = 0; Z != Zero.size(); ++Z) {
    auto Off = static_cast<int32_t>(Zero[Z] * 8);
    if (Z + 1 == Zero.size() || Zero[Z + 1] != Zero[Z] + 1) {
      E.storeMemImm32(RSI, Off, 0);
      continue;
    }
    if (!XmmZeroed) {
      E.u8(0x0F); E.u8(0x57); E.u8(0xC0); // xorps xmm0, xmm0
      XmmZeroed = true;
    }
    E.u8(0x0F); E.u8(0x11); // movups [rsi+Off], xmm0
    E.mem(0, RSI, Off);
    ++Z;
  }
}

/// A direct call of a defined function: Interpreter::callDecoded's entry
/// and exit around a call of the callee's code. The shim runs the call
/// instead — with the same books — while the callee has no code and when
/// the callee would pass MaxCallDepth (the shim traps). The call ends its
/// segment, so no private value lives across it.
void FunctionCompiler::emitNativeCall(uint32_t IP, const DecodedInst &DI,
                                      const DecodedCallSite &CS) {
  const DecodedFunction &Callee = *CS.CalleeDF;
  E.movImm64(RCX, reinterpret_cast<uint64_t>(Cache.entryCell(Callee)));
  E.loadMem(RDX, RCX, 0); // rdx = the callee's entry, or null
  E.testRR(RDX);
  oolExit(CC_Z, IP);
  E.loadMem(RCX, R13, ctxOffset(offsetof(JitContext, Depth)));
  E.cmpRegMem(RCX, R13, ctxOffset(offsetof(JitContext, MaxDepth)));
  oolExit(CC_AE, IP);
  // The context describes the callee's frame until it returns.
  E.aluImm32(0, RCX, 1); // add rcx, 1
  E.storeMem(R13, ctxOffset(offsetof(JitContext, Depth)), RCX);
  E.movImm64(RCX, reinterpret_cast<uint64_t>(&Callee));
  E.storeMem(R13, ctxOffset(offsetof(JitContext, DF)), RCX);
  E.loadMem(RCX, R13, ctxOffset(offsetof(JitContext, CallCount)));
  E.aluMemImm32(0, RCX, 1); // ++CallCount
  E.movImm64(RCX, reinterpret_cast<uint64_t>(Cache.nativeCallCounter()));
  E.aluMemImm32(0, RCX, 1); // jit.native-calls
  E.movRR(RSI, RBX);        // rsi = the callee's register file
  E.aluRegMem(0x03, RSI, R13, ctxOffset(offsetof(JitContext, FrameBytes)));
  emitCalleeFile(CS, Callee);
  // Save the stack pointer in this frame's spare stack slot.
  E.loadMem(RCX, R13, ctxOffset(offsetof(JitContext, StackPointer)));
  E.loadMem(RCX, RCX, 0);
  E.storeMem(RSP, 0, RCX);
  if (DI.Dest != NoReg) // a RetVoid leaves it untouched
    E.storeMemImm32(R13, ctxOffset(offsetof(JitContext, RetValue)), 0);
  // Enter natively: the pinned registers stay, rbx moves to the
  // callee's file for the call.
  E.movRR(RBX, RSI);
  E.aluImm32(0, RDX, static_cast<uint32_t>(JitNativeEntryOffset));
  E.u8(0xFF); E.u8(0xD2); // call rdx
  clobberRax();
  E.aluRegMem(0x2B, RBX, R13, ctxOffset(offsetof(JitContext, FrameBytes)));
  // Exit: restore the stack pointer and this frame's context, then
  // propagate a trap.
  E.loadMem(RCX, R13, ctxOffset(offsetof(JitContext, StackPointer)));
  E.loadMem(RDX, RSP, 0);
  E.storeMem(RCX, 0, RDX);
  E.loadMem(RCX, R13, ctxOffset(offsetof(JitContext, Depth)));
  E.aluImm32(5, RCX, 1); // sub rcx, 1
  E.storeMem(R13, ctxOffset(offsetof(JitContext, Depth)), RCX);
  E.movImm64(RCX, reinterpret_cast<uint64_t>(&DF));
  E.storeMem(R13, ctxOffset(offsetof(JitContext, DF)), RCX);
  exitOnTrap(IP);
  if (DI.Dest != NoReg) {
    E.loadMem(RAX, R13, ctxOffset(offsetof(JitContext, RetValue)));
    if (DI.Width)
      E.maskAcc(DI.Width);
    defRax(DI.Dest);
  }
  Ools.back().Resume = E.pos();
}

/// A smokestack.rand call site: the chain's healthy draw, else ssJitRand
/// out of line. ssJitDraw clobbers the pool registers, so the values
/// that live across it are spilled before and read back after.
void FunctionCompiler::emitRandCall(uint32_t IP, const DecodedInst &DI) {
  clobberRax();
  RegState Live = stateAt(IP, false, NoReg); // the draw reads no operand
  spill(Live);
  E.loadMem(RDI, R13, ctxOffset(offsetof(JitContext, Chain)));
  E.testRR(RDI);
  oolExit(CC_Z, IP, /*Spilled=*/true);
  E.movImm64(RAX, reinterpret_cast<uint64_t>(&ssJitDraw));
  E.u8(0xFF); E.u8(0xD0); // call rax
  E.testRR(RDX);
  oolExit(CC_Z, IP, /*Spilled=*/true);
  reload(Live);
  if (DI.Dest != NoReg) {
    if (DI.Width)
      E.maskAcc(DI.Width);
    defRax(DI.Dest);
  }
  Ools.back().Resume = E.pos();
}

void FunctionCompiler::emitInst(uint32_t IP) {
  const DecodedInst &DI = DF.Insts[IP];
  const unsigned W = DI.Width;
  const auto InterpOne = reinterpret_cast<uint64_t>(&ssJitInterpOne);
  switch (DI.Op) {
  case DecodedOp::Add:
  case DecodedOp::Sub:
  case DecodedOp::Mul:
  case DecodedOp::And:
  case DecodedOp::Or:
  case DecodedOp::Xor: {
    // The decoded engine does not re-mask And/Or/Xor (operands are
    // already in-width), so neither do we.
    loadRax(DI.A);
    Opnd B = opnd(DI.B);
    clobberRax();
    switch (DI.Op) {
    case DecodedOp::Add:
      alu(0x03, 0, RAX, B);
      break;
    case DecodedOp::Sub:
      alu(0x2B, 5, RAX, B);
      break;
    case DecodedOp::Mul:
      imul(RAX, B);
      break;
    case DecodedOp::And:
      alu(0x23, 4, RAX, B);
      break;
    case DecodedOp::Or:
      alu(0x0B, 1, RAX, B);
      break;
    default:
      alu(0x33, 6, RAX, B);
      break;
    }
    if (DI.Op == DecodedOp::Add || DI.Op == DecodedOp::Sub ||
        DI.Op == DecodedOp::Mul)
      E.maskAcc(W);
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::Shl: {
    movTo(RCX, opnd(DI.B));
    loadRax(DI.A);
    clobberRax();
    E.shiftCl(RAX, 4); // shl rax, cl
    E.maskAcc(W);
    E.u8(0x31); E.u8(0xD2); // xor edx, edx
    E.cmpImm32(RCX, W * 8u);
    E.cmovRR(CC_AE, RAX, RDX); // width-exceeding shift -> 0
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::LShr: {
    movTo(RCX, opnd(DI.B));
    loadRax(DI.A);
    clobberRax();
    E.shiftCl(RAX, 5); // shr rax, cl
    E.u8(0x31); E.u8(0xD2); // xor edx, edx
    E.cmpImm32(RCX, W * 8u);
    E.cmovRR(CC_AE, RAX, RDX);
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::AShr: {
    movTo(RCX, opnd(DI.B));
    loadRax(DI.A);
    clobberRax();
    E.sext(RAX, W);
    E.movRR(RDX, RAX);
    E.sarImm(RDX, 63); // rdx = SL < 0 ? -1 : 0 (the saturated result)
    E.shiftCl(RAX, 7); // sar rax, cl
    E.cmpImm32(RCX, W * 8u);
    E.cmovRR(CC_AE, RAX, RDX);
    E.maskAcc(W);
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::ICmpInt: {
    auto P = static_cast<ICmpInst::Predicate>(DI.C);
    uint8_t Cc = setccForPredicate(P);
    if (Cc == 0xFF) { // defensive: decoder never emits this
      shimInst(IP, InterpOne);
      break;
    }
    bool Signed = isSignedPredicate(P);
    Opnd B = opnd(DI.B);
    if (B.K == Opnd::Imm && Signed && W < 8) // as the sext below leaves it
      B.V = static_cast<uint64_t>(sextFromWidth(B.V, W));
    bool ImmB = B.K == Opnd::Imm && fitsImm32(B.V);
    if (!ImmB)
      movTo(RDX, B);
    loadRax(DI.A);
    clobberRax();
    if (Signed) {
      E.sext(RAX, W);
      if (!ImmB)
        E.sext(RDX, W);
    }
    if (ImmB)
      E.cmpImm32(RAX, static_cast<uint32_t>(B.V));
    else
      E.cmpRR(RAX, RDX);
    E.setccAl(Cc);
    E.u8(0x0F); E.u8(0xB6); E.u8(0xC0); // movzx eax, al
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::CastCopy:
    loadRax(DI.A);
    clobberRax();
    E.maskAcc(W);
    defRax(DI.Dest);
    break;
  case DecodedOp::CastSExt:
    loadRax(DI.A);
    clobberRax();
    E.sext(RAX, DI.C); // source width
    E.maskAcc(W);
    defRax(DI.Dest);
    break;
  case DecodedOp::Select: {
    movTo(RDX, opnd(DI.C)); // false value
    loadRax(DI.B);          // true value
    testZero(opnd(DI.A));
    clobberRax();
    E.cmovRR(CC_E, RAX, RDX);
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::GepConst:
  case DecodedOp::GepConstObs: {
    Opnd Base = opnd(DI.A);
    if (Base.K == Opnd::Imm) {
      E.movImm(RAX, Base.V + static_cast<uint64_t>(DI.Imm));
    } else {
      loadRax(DI.A);
      E.addImm(RAX, DI.Imm, RDX);
    }
    clobberRax();
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::GepIndex:
  case DecodedOp::GepIndexObs: {
    // rax = base + index * scale + offset, starting from whichever of
    // base and index rax holds.
    auto Scale = [&](uint8_t R) {
      if (DI.C == 1)
        return; // index * 1: nothing to scale
      if (DI.C <= static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
        E.imulImm32(R, R, DI.C);
      } else { // scale would sign-extend as imm32; go through a register
        E.movImm64(RCX, DI.C);
        E.imulRR(R, RCX);
      }
    };
    if (DI.A == InRax) {
      movTo(RDX, opnd(DI.B));
      Scale(RDX);
      clobberRax();
      E.addRR(RAX, RDX);
      E.addImm(RAX, DI.Imm, RDX);
    } else {
      Opnd Base = opnd(DI.A);
      uint64_t Off = static_cast<uint64_t>(DI.Imm);
      if (Base.K == Opnd::Imm) {
        Base.V += Off;
        Off = 0;
      }
      loadRax(DI.B);
      clobberRax();
      Scale(RAX);
      alu(0x03, 0, RAX, Base); // add rax, base
      E.addImm(RAX, static_cast<int64_t>(Off), RDX);
    }
    defRax(DI.Dest);
    break;
  }
  case DecodedOp::AllocaStatic: {
    // Interpreter::materializeAlloca for one element: every failing check
    // leaves through the shim before StackPointer moves, so the shim
    // re-runs the checks and traps identically.
    const auto *Alloca = cast<AllocaInst>(DI.Src);
    uint64_t Bytes = Alloca->getAllocatedType()->sizeInBytes();
    uint64_t Align = Alloca->getAlign();
    if (Bytes > MemoryMap::StackSize || Align == 0 ||
        (Align & (Align - 1)) != 0 || Align > (uint64_t(1) << 30)) {
      shimInst(IP, InterpOne);
      break;
    }
    clobberRax();
    E.loadMem(RDX, R13, ctxOffset(offsetof(JitContext, StackPointer)));
    E.loadMem(RAX, RDX, 0);
    E.cmpImm32(RAX, static_cast<uint32_t>(MemoryMap::StackBase + Bytes));
    oolExit(CC_B, IP);
    if (Bytes)
      E.aluImm32(5, RAX, static_cast<uint32_t>(Bytes)); // sub
    if (Align > 1)
      E.aluImm32(4, RAX, static_cast<uint32_t>(-static_cast<int64_t>(Align)));
    E.cmpImm32(RAX, static_cast<uint32_t>(MemoryMap::StackBase));
    oolExit(CC_B, IP);
    E.storeMem(RDX, 0, RAX);
    E.loadMem(RSI, R13, ctxOffset(offsetof(JitContext, StackLowWater)));
    E.cmpRegMem(RAX, RSI, 0); // if (SP < LowWater) LowWater = SP
    E.jccRel8(CC_AE, 3);
    E.storeMem(RSI, 0, RAX); // 3 bytes
    defRax(DI.Dest);
    Ools.back().Resume = E.pos();
    break;
  }
  case DecodedOp::Load: {
    if (uint32_t R = Rows.RowOf[IP]; R != RowPlan::NoRow) {
      // A P-BOX row load: its row's first load checks that the whole
      // row lies in the read-only segment, else the rest of the segment
      // runs through the interpreter; every row load then reads the
      // segment's host bytes directly.
      const RowPlan::Row &Row = Rows.Rows[R];
      loadRax(DI.A);
      if (Row.First == IP) {
        E.rex(true, RCX, 0, RAX); // lea rcx, [rax + Lo - Imm - RODataBase]
        E.u8(0x8D);
        E.mem(RCX, RAX,
              static_cast<int32_t>(Row.Lo - Row.FirstImm -
                                   static_cast<int64_t>(
                                       MemoryMap::RODataBase)));
        E.cmpImm32(RCX, static_cast<uint32_t>(MemoryMap::RODataSize -
                                              static_cast<uint64_t>(
                                                  Row.Span)));
        oolExit(CC_A, IP);
        Ools.back().RangeEnd = SegEnd[IP] - 1;
      }
      E.loadMem(RSI, R13, ctxOffset(offsetof(JitContext, RODataHost)));
      clobberRax();
      E.loadIndexed(W, RSI, RAX,
                    -static_cast<int32_t>(MemoryMap::RODataBase));
      defRax(DI.Dest);
      break;
    }
    // Stack-segment fast path; anything else (globals, heap, rodata,
    // unmapped) leaves out of line.
    loadRax(DI.A);
    E.rex(true, RCX, 0, RAX); // lea rcx, [rax - StackBase]
    E.u8(0x8D);
    E.mem(RCX, RAX, -static_cast<int32_t>(MemoryMap::StackBase));
    E.cmpImm32(RCX, static_cast<uint32_t>(MemoryMap::StackSize - W));
    oolExit(CC_A, IP);
    E.loadIndexed(W, R15);
    clobberRax();
    Ools.back().Join = E.pos();
    defRax(DI.Dest);
    Ools.back().Resume = E.pos();
    break;
  }
  case DecodedOp::Store: {
    movTo(RDX, opnd(DI.A)); // value
    loadRax(DI.B);          // address
    E.rex(true, RCX, 0, RAX); // lea rcx, [rax - StackBase]
    E.u8(0x8D);
    E.mem(RCX, RAX, -static_cast<int32_t>(MemoryMap::StackBase));
    E.cmpImm32(RCX, static_cast<uint32_t>(MemoryMap::StackSize - W));
    oolExit(CC_A, IP);
    if (W == 1) { // mov byte [r15 + rcx], dl
      E.rex(false, RDX, RCX, R15);
      E.u8(0x88);
      E.memIndex(RDX, R15, RCX);
    } else if (W == 2) { // mov word [r15 + rcx], dx
      E.u8(0x66);
      E.rex(false, RDX, RCX, R15);
      E.u8(0x89);
      E.memIndex(RDX, R15, RCX);
    } else if (W == 4) { // mov dword [r15 + rcx], edx
      E.rex(false, RDX, RCX, R15);
      E.u8(0x89);
      E.memIndex(RDX, R15, RCX);
    } else { // mov qword [r15 + rcx], rdx
      E.rex(true, RDX, RCX, R15);
      E.u8(0x89);
      E.memIndex(RDX, R15, RCX);
    }
    // ByteArena::noteTouched(Off, Off + W), verbatim:
    //   if (Off < TouchedLo) TouchedLo = Off;
    //   if (Off + W > TouchedHi) TouchedHi = Off + W;
    E.cmpRegMem(RCX, R12, 0); // cmp rcx, [r12]
    E.jccRel8(CC_AE, 4);
    E.rex(true, RCX, 0, R12); // mov [r12], rcx (4 bytes)
    E.u8(0x89);
    E.mem(RCX, R12, 0);
    E.rex(true, RSI, 0, RCX); // lea rsi, [rcx + W]
    E.u8(0x8D);
    E.mem(RSI, RCX, static_cast<int32_t>(W));
    E.cmpRegMem(RSI, RBP, 0); // cmp rsi, [rbp]
    E.jccRel8(CC_BE, 4);
    E.rex(true, RSI, 0, RBP); // mov [rbp], rsi (4 bytes)
    E.u8(0x89);
    E.mem(RSI, RBP, 0);
    Ools.back().Resume = E.pos();
    break;
  }
  case DecodedOp::Br:
    if (DI.A != IP + 1) // else the target's head comes next
      E.jmpLabel(Label::Inst, DI.A);
    break;
  case DecodedOp::CondBr:
    testZero(opnd(DI.A));
    if (DI.B == IP + 1) {
      E.jccLabel(CC_E, Label::Inst, DI.C);
    } else {
      E.jccLabel(CC_NE, Label::Inst, DI.B);
      if (DI.C != IP + 1)
        E.jmpLabel(Label::Inst, DI.C);
    }
    break;
  case DecodedOp::Ret:
    loadRax(DI.A);
    E.storeMem(R13, ctxOffset(offsetof(JitContext, RetValue)), RAX);
    E.jmpLabel(Label::OkExit);
    break;
  case DecodedOp::RetVoid:
    E.jmpLabel(Label::OkExit);
    break;
  case DecodedOp::Call: {
    const DecodedCallSite &CS = DF.CallSites[DI.A];
    if (CS.Builtin == BuiltinId::Rand)
      emitRandCall(IP, DI);
    else if (CS.Builtin == BuiltinId::None && CS.CalleeDF &&
             CS.NumArgs == CS.CalleeDF->ArgWidths.size())
      emitNativeCall(IP, DI, CS);
    else
      shimInst(IP, InterpOne); // other builtins
    break;
  }
  default:
    // Everything else — VLAs, division/remainder, all floating point,
    // FP-involved casts, unreachable — runs the interpreter's own switch
    // via the shim.
    shimInst(IP, InterpOne);
    break;
  }
}

void FunctionCompiler::emitOutOfLine() {
  const auto InterpOne = reinterpret_cast<uint64_t>(&ssJitInterpOne);
  for (const OolBlock &B : Ools) {
    for (size_t Hole : B.JccHoles)
      E.patchRel32(Hole, E.pos());
    const DecodedInst &DI = DF.Insts[B.IP];
    if (B.RangeEnd) {
      spill(B.Spill);
      writeConsts(B.IP, B.RangeEnd);
      E.movImm32(RCX, B.RangeEnd);
      E.callShim3(reinterpret_cast<uint64_t>(&ssJitInterpRange), B.IP);
      E.testEax();
      E.jccLabel(CC_NZ, Label::TrapExit); // the shim refunded
      reload(AtLast.at(B.RangeEnd));
      E.patchRel32(E.jmpHole(), BodyOff[B.RangeEnd]);
      continue;
    }
    if (DI.Op == DecodedOp::Load) {
      // Off the stack: retry against the read-only segment, where the
      // hardened prologue's P-BOX lives. rax still holds the address.
      unsigned W = DI.Width;
      E.rex(true, RCX, 0, RAX); // lea rcx, [rax - RODataBase]
      E.u8(0x8D);
      E.mem(RCX, RAX, -static_cast<int32_t>(MemoryMap::RODataBase));
      E.cmpImm32(RCX, static_cast<uint32_t>(MemoryMap::RODataSize - W));
      size_t NotRO = E.jccHole(CC_A);
      E.loadMem(RSI, R13, ctxOffset(offsetof(JitContext, RODataHost)));
      E.loadIndexed(W, RSI);
      E.patchRel32(E.jmpHole(), B.Join);
      E.patchRel32(NotRO, E.pos());
    }
    // A smokestack.rand site takes its full draw, anything else the
    // interpreter's case.
    bool IsRand = DI.Op == DecodedOp::Call &&
                  DF.CallSites[DI.A].Builtin == BuiltinId::Rand;
    spill(B.Spill);
    writeConsts(B.IP, B.IP + 1);
    E.callShim3(IsRand ? reinterpret_cast<uint64_t>(&ssJitRand) : InterpOne,
                B.IP);
    exitOnTrap(B.IP);
    reload(B.Reload);
    E.patchRel32(E.jmpHole(), B.Resume);
  }
  for (const SegmentSlowPath &P : SlowPaths) {
    E.patchRel32(P.JccHole, E.pos());
    // ssJitTryCharge(Ctx, N); nothing is live at a head.
    E.movRR(RDI, R13);
    E.movImm32(RSI, P.N);
    E.movImm64(RAX, reinterpret_cast<uint64_t>(&ssJitTryCharge));
    E.u8(0xFF); E.u8(0xD0); // call rax
    E.testEax();
    E.patchRel32(E.jccHole(CC_NZ), BodyOff[P.Start]);
    uint32_t Last = P.Start + P.N - 1;
    writeConsts(P.Start, Last);
    E.movImm32(RCX, P.N);
    E.callShim3(reinterpret_cast<uint64_t>(&ssJitInterpSegment), P.Start);
    E.testEax();
    E.jccLabel(CC_NZ, Label::TrapExit);
    reload(AtLast.at(Last));
    E.patchRel32(E.jmpHole(), BodyOff[Last]);
  }
}

std::vector<uint8_t> FunctionCompiler::compile() {
  //===--- entries -------------------------------------------------------===//
  emitCEntry(E);
  assert(E.pos() == JitNativeEntryOffset && "C entry changed size");
  E.u8(0x48); E.u8(0x83); E.u8(0xEC); E.u8(0x08); // sub rsp, 8

  //===--- per-instruction stencils --------------------------------------===//
  for (uint32_t IP = 0; IP != DF.Insts.size(); ++IP) {
    if (IP == 0 || SegEnd[IP - 1] == IP) {
      // Segment head: charge all N instructions at once when
      // (FuelLeft & JitCancelMask) >= N, else take the slow path. Branches
      // jump in here, so no register holds a known value.
      InRax = NoReg;
      uint32_t N = SegEnd[IP] - IP;
      HeadOff[IP] = E.pos();
      E.rex(false, RAX, 0, R14); // mov eax, [r14] (the low bits suffice)
      E.u8(0x8B);
      E.mem(RAX, R14, 0);
      E.u8(0x25); // and eax, JitCancelMask
      E.u32(static_cast<uint32_t>(JitCancelMask));
      E.u8(0x3D); // cmp eax, N
      E.u32(N);
      SlowPaths.push_back({E.jccHole(CC_B), IP, N});
      E.aluMemImm32(5, R14, N); // sub qword [r14], N
    }
    BodyOff[IP] = E.pos();
    if (SegEnd[IP] == IP + 1)
      AtLast[IP] = stateAt(IP, false, InRax);
    Out = NoReg;
    emitInst(IP);
    // The shim paths of IP's stencil rejoin with its registers restored.
    for (auto It = Ools.rbegin(); It != Ools.rend() && It->IP == IP; ++It)
      It->Reload = stateAt(IP, true, Out);
    InRax = Out;
  }

  emitOutOfLine();

  //===--- refund stubs ---------------------------------------------------===//
  std::map<uint32_t, size_t> RefundOff;
  for (const Emitter::Fixup &F : E.Fixups)
    if (F.L == Label::Refund)
      RefundOff.emplace(F.Value, 0);
  for (auto &[Units, Off] : RefundOff) {
    Off = E.pos();
    E.aluMemImm32(0, R14, Units); // add qword [r14], Units
    E.jmpLabel(Label::TrapExit);
  }

  //===--- shared exits ---------------------------------------------------===//
  // Back to the C entry or the native caller, status in eax.
  size_t TrapOff = E.pos();
  E.movImm32(RAX, 1);
  E.jmpRel8(2); // over the ok exit's xor
  size_t OkOff = E.pos();
  E.u8(0x31); E.u8(0xC0); // xor eax, eax
  E.u8(0x48); E.u8(0x83); E.u8(0xC4); E.u8(0x08); // add rsp, 8
  E.u8(0xC3);             // ret

  //===--- patch all recorded holes ---------------------------------------===//
  for (const Emitter::Fixup &F : E.Fixups) {
    size_t Target = 0;
    switch (F.L) {
    case Label::Inst:
      assert(F.Value < HeadOff.size() &&
             (F.Value == 0 || SegEnd[F.Value - 1] == F.Value) &&
             "branch to an instruction that is not a segment head");
      Target = HeadOff[F.Value];
      break;
    case Label::TrapExit:
      Target = TrapOff;
      break;
    case Label::OkExit:
      Target = OkOff;
      break;
    case Label::Refund:
      Target = RefundOff.at(F.Value);
      break;
    }
    E.patchRel32(F.Pos, Target);
  }

  return std::move(E.Code);
}

} // namespace

std::vector<uint8_t> smokestack::compileDecoded(const DecodedFunction &DF,
                                                JitCache &Cache) {
  // A backstop against pathological inputs: at the observed ~60 bytes per
  // stencil this caps emitted code well inside rel32 range and the arena.
  if (DF.Insts.size() > (1u << 16))
    return {};
  return FunctionCompiler(DF, Cache).compile();
}

#else // non-x86-64 build: never compiled, caller falls back to decoded.

std::vector<uint8_t> smokestack::compileDecoded(const DecodedFunction &,
                                                JitCache &) {
  return {};
}

#endif
