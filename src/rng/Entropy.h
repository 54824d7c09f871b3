//===- rng/Entropy.h - True-random entropy sources -------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// True-random seed material for keying the AES-CTR generator and for the
/// simulated-RDRAND fallback. The paper seeds from a true random number
/// source (rdrand; /dev/random was rejected because it stalls). We provide a
/// system-backed source for real runs and a deterministic source so tests
/// and experiments are reproducible.
///
/// Entropy can fail: std::random_device may throw, the kernel interface can
/// stall, and the fault-injection layer models both. tryFill()/tryNext64()
/// surface failure as an explicit result the caller can degrade on; the
/// fill()/next64() conveniences are fail-closed — they terminate through
/// reportFatalError rather than ever handing out non-random bytes or
/// letting an exception escape library code.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RNG_ENTROPY_H
#define SMOKESTACK_RNG_ENTROPY_H

#include "support/SplitMix64.h"

#include <cstddef>
#include <cstdint>

namespace smokestack {

/// Produces seed material assumed unpredictable by the attacker.
class EntropySource {
public:
  virtual ~EntropySource();

  /// Fills \p Size bytes at \p Buffer with entropy. Returns false on
  /// entropy failure (pool stall, std::random_device exception, injected
  /// fault); the buffer contents are unspecified then and must not be used.
  [[nodiscard]] virtual bool tryFill(uint8_t *Buffer, size_t Size) = 0;

  /// Returns 64 bits of entropy in \p Out, or false on entropy failure.
  [[nodiscard]] bool tryNext64(uint64_t &Out);

  /// Fail-closed convenience: like tryFill, but a failure is a fatal error
  /// (never silently degraded). Use tryFill where degradation is handled.
  void fill(uint8_t *Buffer, size_t Size);

  /// Fail-closed convenience: 64 bits of entropy or a fatal error.
  uint64_t next64();
};

/// Entropy from the operating system (getrandom / /dev/urandom).
class SystemEntropySource : public EntropySource {
public:
  bool tryFill(uint8_t *Buffer, size_t Size) override;
};

/// Deterministic entropy for reproducible tests and experiments. Callers
/// must treat it as if it were true randomness; attack code in this repo is
/// never allowed to read its seed. Final: the simulated DRNG's healthy
/// draw stands in for this class's tryFill, so no subclass may change it.
class DeterministicEntropySource final : public EntropySource {
public:
  explicit DeterministicEntropySource(uint64_t Seed) : Generator(Seed) {}
  bool tryFill(uint8_t *Buffer, size_t Size) override;

  /// The next word with no fault probe. Equals tryNext64 whenever no
  /// injector is installed (a probe is then a constant false); the
  /// simulated DRNG's healthy draw (rng/RdRand.h) reads it directly.
  uint64_t nextUnprobed() { return Generator.next(); }

private:
  SplitMix64 Generator;
};

} // namespace smokestack

#endif // SMOKESTACK_RNG_ENTROPY_H
