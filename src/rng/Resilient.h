//===- rng/Resilient.h - Fallback-chain randomness decorator ---*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ResilientRandomSource wraps an ordered chain of RandomSources (e.g.
/// RDRAND -> AES-CTR) and serves every draw from the best source that can
/// currently produce randomness. Failure handling is explicit and fully
/// accounted:
///
///  - Every draw tries each source once, from the top of the chain. A
///    draw served further down than the last one *fails over* to that
///    source; a draw served further up *re-adopts* it (healthy ->
///    degraded -> healthy round trip, both transitions counted). So a
///    recovered primary serves again from its first good draw.
///  - If the whole chain fails, the draw fails closed: DrawStatus::Failed,
///    which the VM turns into a RandomnessFailure trap confined to the
///    current request. Nothing ever serves an insecure stand-in.
///
/// Any draw not served by the healthy primary bumps a counter. With one
/// attempt per source, "degraded draws == injected/observed failure
/// events" holds exactly, and the soak harness checks it end to end.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RNG_RESILIENT_H
#define SMOKESTACK_RNG_RESILIENT_H

#include "faults/FaultInjector.h"
#include "rng/RandomSource.h"
#include "rng/RdRand.h"

#include <cstddef>

namespace smokestack {

/// Decorator serving draws from the first healthy source of a chain.
class ResilientRandomSource final : public RandomSource {
public:
  /// Coarse health of the decorated stack.
  enum class Health : uint8_t {
    Healthy,  ///< Serving from the primary, last draw fully healthy.
    Degraded, ///< Serving from a fallback, or last draw was degraded.
    Failed,   ///< Last draw failed closed.
  };

  static constexpr size_t MaxChain = 4;

  /// Builds a decorator over \p Sources (best first; at least one, at most
  /// MaxChain — extras are ignored). The sources must outlive this object.
  explicit ResilientRandomSource(std::span<RandomSource *const> Sources);

  uint64_t next() override;
  [[nodiscard]] bool tryNext(uint64_t &Out) override;

  /// The draw of a healthy chain with no virtual call, for callers that
  /// want the common case cheap (the JIT's smokestack.rand call sites).
  /// It applies while the primary is active and a simulated DRNG, no
  /// fault injector is installed, and the batch size is 1; then it draws
  /// exactly what nextBuffered() would, with the same DrawStatus (Ok, on
  /// the chain and on the primary) and the same books (one more draw
  /// served). Otherwise it returns false having changed nothing, and the
  /// caller takes nextBuffered().
  [[nodiscard]] bool tryHealthyDraw(uint64_t &Out) {
    if (Active != 0 || !SimulatedPrimary || batchSize() != 1 ||
        faultInjectionActive())
      return false;
    Out = SimulatedPrimary->nextHealthy();
    ++DrawsServed;
    setDrawStatus(DrawStatus::Ok);
    return true;
  }

  /// Per-draw policy must apply to every buffered word, so fill() loops
  /// next() and reports the *worst* status of the batch (one failed draw
  /// poisons the whole refill rather than hiding inside it).
  void fill(std::span<uint64_t> Out) override;

  /// "resilient[<active source>]".
  const char *name() const override { return Name; }

  /// Classification of the source currently serving draws.
  SecurityLevel securityLevel() const override;
  std::span<const uint8_t> disclosableState() const override;
  std::span<uint8_t> mutableDisclosableState() override;

  Health health() const;
  size_t activeIndex() const { return Active; }
  size_t chainLength() const { return Length; }
  RandomSource &source(size_t I) const { return *Chain[I]; }

  /// Re-adopts the primary immediately (tests and request-boundary resets).
  /// Counters are monotonic and unaffected.
  void resetHealth();

  /// Successful draws served (healthy or degraded).
  uint64_t drawsServed() const { return DrawsServed; }
  /// Draws not served by a fully healthy primary (includes fallback draws
  /// and degraded primary draws).
  uint64_t degradedDraws() const { return DegradedDraws; }
  /// Draws served by a chain source other than the primary.
  uint64_t fallbackDraws() const { return FallbackDraws; }
  /// Transitions to a worse chain position.
  uint64_t failovers() const { return Failovers; }
  /// Transitions back to a better chain position (reprobe successes).
  uint64_t recoveries() const { return Recoveries; }
  /// Whole-chain failures reported as DrawStatus::Failed.
  uint64_t failClosedDraws() const { return FailClosedDraws; }

private:
  void adopt(size_t Index);

  RandomSource *Chain[MaxChain];
  size_t Length;
  /// Chain[0] when it is a simulated DRNG (tryHealthyDraw), else null.
  RdRandSource *SimulatedPrimary = nullptr;
  /// The source that served the last good draw.
  size_t Active = 0;
  char Name[64];

  uint64_t DrawsServed = 0;
  uint64_t DegradedDraws = 0;
  uint64_t FallbackDraws = 0;
  uint64_t Failovers = 0;
  uint64_t Recoveries = 0;
  uint64_t FailClosedDraws = 0;
};

} // namespace smokestack

#endif // SMOKESTACK_RNG_RESILIENT_H
