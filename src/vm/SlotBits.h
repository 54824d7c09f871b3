//===- vm/SlotBits.h - Register-slot bit manipulation ----------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Width-keyed masking, sign extension, and FP slot encoding used by the
/// interpreter's per-instruction code (Interpreter::execInlined, which the
/// JIT's slow paths run too) and the JIT's rand shim. Every register slot
/// is a uint64_t holding the value's low bytes (integers, pre-masked to
/// their type width) or its IEEE bit pattern (floats in the low 4 bytes,
/// doubles in all 8).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_SLOTBITS_H
#define SMOKESTACK_VM_SLOTBITS_H

#include <cstdint>
#include <cstring>

namespace smokestack {

/// Masks \p Bits to the low \p Width bytes.
inline uint64_t maskToWidth(uint64_t Bits, uint64_t Width) {
  if (Width >= 8)
    return Bits;
  return Bits & ((uint64_t(1) << (Width * 8)) - 1);
}

/// Sign-extends the low \p Width bytes of \p Bits to 64 bits.
inline int64_t sextFromWidth(uint64_t Bits, uint64_t Width) {
  if (Width >= 8)
    return static_cast<int64_t>(Bits);
  unsigned Shift = static_cast<unsigned>(64 - Width * 8);
  return static_cast<int64_t>(Bits << Shift) >> Shift;
}

/// Reinterprets a slot as double given its FP byte width (4 = float,
/// 8 = double).
inline double slotToFPW(uint64_t Bits, unsigned Width) {
  if (Width == 4) {
    float F;
    uint32_t Low = static_cast<uint32_t>(Bits);
    std::memcpy(&F, &Low, sizeof(F));
    return F;
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// Encodes a double into an FP slot of byte width \p Width.
inline uint64_t fpToSlotW(double Value, unsigned Width) {
  if (Width == 4) {
    float F = static_cast<float>(Value);
    uint32_t Low;
    std::memcpy(&Low, &F, sizeof(F));
    return Low;
  }
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Value));
  return Bits;
}

} // namespace smokestack

#endif // SMOKESTACK_VM_SLOTBITS_H
