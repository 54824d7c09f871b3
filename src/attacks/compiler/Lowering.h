//===- attacks/compiler/Lowering.h - Spec-to-payload lowering ---*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attacker side of the attack compiler: lowers an AttackSpec onto
/// concrete overflow payload records against the frame layout a probe of
/// the deployed binary disclosed, and runs the probe-then-exploit campaign.
///
/// Direct mode lowers the spec's gadget chain onto a *schedule* of records,
/// one per dispatcher round: each sweep clobbers everything between the
/// buffer and its furthest target with filler, so every round's record must
/// re-plant the loop counter, the opcode and operand of that round's
/// gadget, and the accumulator value the chain expects at that point — the
/// attacker computes the DOP computation forward and feeds the victim its
/// own intermediates.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_ATTACKS_COMPILER_LOWERING_H
#define SMOKESTACK_ATTACKS_COMPILER_LOWERING_H

#include "attacks/Attacker.h"
#include "attacks/compiler/AttackSpec.h"
#include "defenses/Deploy.h"

#include <optional>

namespace smokestack {

/// A spec compiled against one disclosed layout.
struct LoweredAttack {
  /// Overflow records, in the order the victim's get_input calls consume
  /// them (one per dispatcher round for Direct mode, a single record for
  /// PointerIndirect).
  std::vector<Payload> Records;
  /// driver()'s return value when the attack lands.
  uint64_t SuccessValue = 0;
};

/// Lowers \p Spec against the layout \p Oracle disclosed. Fails (nullopt)
/// when a required symbol was not observed or a target sits below the
/// overflowed buffer — the disclosed layout offers the spec no gadget.
std::optional<LoweredAttack> lowerAttack(const AttackSpec &Spec,
                                         const LayoutOracle &Oracle);

/// Compiles and runs \p Spec against \p Defense: synthesize the victim,
/// deploy the defense under Spec.BuildSeed, probe once with a layout
/// oracle, lower, then run up to \p Budget exploit attempts against fresh
/// executions. Smokestack deployments draw from an AES-CTR source seeded
/// from the corpus coordinates, so every cell replays bit-identically.
/// With \p Jit the exploit attempts run on the JIT (threshold 0), so a
/// hardened victim permutes its frames in native code; the probe stays on
/// the decoded engine, which it must anyway: it binds a LayoutObserver.
AttackReport runCompiledAttack(const AttackSpec &Spec, DefenseKind Defense,
                               unsigned Budget, bool Jit = false);

} // namespace smokestack

#endif // SMOKESTACK_ATTACKS_COMPILER_LOWERING_H
