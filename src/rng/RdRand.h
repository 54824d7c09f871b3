//===- rng/RdRand.h - Hardware true-random source --------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's RDRAND scheme: a true random value from the on-chip hardware
/// generator for every permutation selection. Highest security, but the
/// paper measures ~265 cycles per draw due to the generator's bandwidth
/// limits. On hosts without RDRAND a simulated entropy-backed source stands
/// in (documented substitution; same interface, same security class).
///
/// Failure model: RDRAND can transiently return CF=0 when the DRNG is busy,
/// and the DRNG can die outright (documented on several steppings). A draw
/// makes a bounded number of retry attempts; exhaustion is reported to the
/// caller via tryNext() — never papered over by returning the
/// zero-initialized scratch word, which would be a fail-open handing the
/// attacker an all-zero "random" permutation index. next() keeps a total
/// function signature by degrading to one accounted emergency draw from the
/// seed-entropy fallback, and fails closed (DrawStatus::Failed) when even
/// that is unavailable.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RNG_RDRAND_H
#define SMOKESTACK_RNG_RDRAND_H

#include "faults/FaultInjector.h"
#include "rng/Entropy.h"
#include "rng/RandomSource.h"

namespace smokestack {

/// Returns true if the CPU implements the RDRAND instruction.
bool rdRandAvailable();

/// True-random source backed by RDRAND, or by \p Fallback entropy when the
/// instruction is unavailable (or \p ForceFallback is set, e.g. for
/// reproducible experiments).
class RdRandSource : public RandomSource {
public:
  /// Retry attempts per draw before the DRNG is declared exhausted
  /// (Intel's guidance is a small bounded retry loop).
  static constexpr int RetryLimit = 16;

  explicit RdRandSource(EntropySource &Fallback, bool ForceFallback = false);

  uint64_t next() override;
  [[nodiscard]] bool tryNext(uint64_t &Out) override;
  const char *name() const override { return "RDRAND"; }
  SecurityLevel securityLevel() const override { return SecurityLevel::High; }

  /// True when draws come from the hardware instruction.
  bool usingHardware() const { return UseHardware; }

  /// True when the DRNG is simulated by a deterministic entropy stream,
  /// the case nextHealthy() serves.
  bool simulated() const { return Simulated != nullptr; }

  /// tryNext() on its healthy path, with no virtual call: one step of the
  /// simulated stream, DrawStatus::Ok. Only valid while simulated() holds
  /// and no fault injector is installed (faultInjectionActive() false);
  /// then it has exactly tryNext()'s effect.
  uint64_t nextHealthy() {
    setDrawStatus(DrawStatus::Ok);
    return Simulated->nextUnprobed();
  }

  /// Individual retry attempts that failed (CF=0, real or injected).
  uint64_t retryFailures() const { return RetryFailures; }
  /// Draws on which the DRNG failed outright (retry exhaustion or death).
  uint64_t drngFailureEvents() const { return FailureEvents; }
  /// next() draws served by the accounted emergency entropy fallback.
  uint64_t emergencyDraws() const { return EmergencyDraws; }

private:
  /// One DRNG draw (hardware RDRAND or the simulated stand-in), including
  /// the bounded retry loop and the fault probes. Honest: false = failure.
  bool drawFromDrng(uint64_t &Out) {
    // The healthy simulated draw. With no injector installed, the death
    // probe, the first step probe and the entropy read's probe of
    // drawProbed are all constant false with no side effect, and the draw
    // is one SplitMix64 step of the fallback: take it directly. An
    // installed injector sends every draw down the probed path, so its
    // decision streams advance exactly as before.
    if (Simulated && !faultInjectionActive()) {
      Out = Simulated->nextUnprobed();
      return true;
    }
    return drawProbed(Out);
  }
  /// The draw with every probe consumed in order (out of line, so the
  /// healthy draw stays a leaf).
  [[gnu::noinline]] bool drawProbed(uint64_t &Out);

  EntropySource &Fallback;
  bool UseHardware;
  /// Fallback as a deterministic source when it is one and the DRNG is
  /// simulated: the healthy draw's direct SplitMix64 path. nullptr
  /// otherwise.
  DeterministicEntropySource *Simulated;
  uint64_t RetryFailures = 0;
  uint64_t FailureEvents = 0;
  uint64_t EmergencyDraws = 0;
};

} // namespace smokestack

#endif // SMOKESTACK_RNG_RDRAND_H
