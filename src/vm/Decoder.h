//===- vm/Decoder.h - IR-to-DecodedFunction lowering -----------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-time lowering of a Function into the flat DecodedFunction form (see
/// DecodedFunction.h). Decoding resolves every operand to a register or
/// constant-pool index, folds ConstantInt masking / ConstantFP encoding /
/// global-address resolution into the pool, and rewrites basic-block
/// successors as instruction-array offsets. The result depends on the
/// interpreter's global address map, so decode only after globals load.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_DECODER_H
#define SMOKESTACK_VM_DECODER_H

#include "vm/DecodedFunction.h"

#include <memory>
#include <string>
#include <unordered_map>

namespace smokestack {

/// Lowers \p F (which must be a definition) into its decoded form.
/// \p GlobalAddresses maps module globals to their simulated addresses;
/// \p Index is F's position in its module (DecodedFunction::Index).
std::unique_ptr<DecodedFunction>
decodeFunction(Function &F,
               const std::unordered_map<std::string, uint64_t> &GlobalAddresses,
               uint32_t Index);

} // namespace smokestack

#endif // SMOKESTACK_VM_DECODER_H
