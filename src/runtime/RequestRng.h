//===- runtime/RequestRng.h - Per-worker randomness chain ------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The randomness stack one pool worker owns: simulated-RDRAND primary →
/// AES-CTR fallback → fail-closed resilient decorator, the same chain the
/// sequential soak drives. Nothing in it is shared — every worker has its
/// own entropy streams, its own AES key schedule, its own buffered words —
/// so the interpreter hot path draws without any synchronization, and one
/// worker can never observe another worker's buffered draws (the isolation
/// the BufferedIsolation test pins down).
///
/// reseed(Root, Index) rebuilds the chain in place from request-derived
/// seeds (see runtime/DeriveSeed.h) and rolls the outgoing chain's books
/// into the accumulated totals first, so per-worker accounting is the
/// exact sum of per-request accounting — the quantity that is invariant
/// under worker count. Construction probes fault sites (the initial AES
/// keying draws rekey entropy), so install the request's FaultScope
/// *before* calling reseed.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RUNTIME_REQUESTRNG_H
#define SMOKESTACK_RUNTIME_REQUESTRNG_H

#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "rng/RdRand.h"
#include "rng/Resilient.h"

#include <cstdint>
#include <optional>

namespace smokestack {

/// One worker's reseedable randomness chain plus its accumulated books.
class RequestRng {
public:
  struct Config {
    unsigned AesRounds = 10;
    uint64_t RekeyInterval = 1024;
    /// nextBuffered() batch on the decorator (1 = unbuffered).
    unsigned BatchSize = 1;
  };

  /// Sum of the chain's degradation/failure counters, accumulated across
  /// reseeds. Every field is a per-request pure function of the request
  /// seed (given the same fault plan), so sums are schedule-independent.
  struct Books {
    uint64_t DrawsServed = 0;
    uint64_t DegradedDraws = 0;
    uint64_t FallbackDraws = 0;
    uint64_t FailClosedDraws = 0;
    uint64_t Failovers = 0;
    uint64_t Recoveries = 0;
    uint64_t DrngRetryFailures = 0;
    uint64_t DrngFailureEvents = 0;
    uint64_t AesRekeys = 0;
    uint64_t FailedRekeys = 0;
    uint64_t StaleKeyDraws = 0;
    uint64_t UnkeyedDraws = 0;
    uint64_t BufferRefills = 0;

    Books &operator+=(const Books &O);
    /// Counter-wise difference against an earlier snapshot of the SAME
    /// monotonically growing books (per-request delta capture). The caller
    /// guarantees \p Since <= *this field-wise; reset() breaks that, so
    /// deltas must be taken before any rebuild banks-and-resets.
    Books &operator-=(const Books &O);
  };

  explicit RequestRng(Config C) : Cfg(C) {}

  /// Tears down the current chain (rolling its books into the totals) and
  /// builds a fresh one from request \p Index's derived seeds. The chain
  /// starts healthy and unkeyed-AES keys itself here, under any installed
  /// FaultScope.
  void reseed(uint64_t RootSeed, uint64_t Index);

  /// Returns this object to its just-constructed state: the chain is torn
  /// down and the accumulated books are dropped. The crash-rebuild
  /// fast-path's equivalent of constructing a fresh RequestRng — callers
  /// must bank books() first, exactly as across a full rebuild. The next
  /// reseed() rebuilds the chain from its request's derived seeds alone,
  /// so a reset object's draw streams are identical to a new object's.
  void reset();

  /// The decorator serving draws (valid after the first reseed).
  ResilientRandomSource &source() { return *Chain; }
  bool seeded() const { return Chain.has_value(); }

  /// Accumulated books including the live chain's counters.
  Books books() const;

private:
  Books liveBooks() const;

  Config Cfg;
  std::optional<DeterministicEntropySource> DrngEntropy;
  std::optional<DeterministicEntropySource> AesEntropy;
  std::optional<RdRandSource> Primary;
  std::optional<AesCtrRandomSource> Fallback;
  std::optional<ResilientRandomSource> Chain;
  Books Accumulated;
};

} // namespace smokestack

#endif // SMOKESTACK_RUNTIME_REQUESTRNG_H
