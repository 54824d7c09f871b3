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
///  - Per draw, each source gets a bounded number of tryNext() attempts
///    with an exponential busy-wait backoff between attempts (RDRAND's
///    CF=0 is transient by design, so a short backoff often recovers it).
///  - When a source's attempts are exhausted, the draw *fails over* to the
///    next source in the chain; the chain position is sticky so subsequent
///    draws go straight to the surviving source.
///  - Every ReprobeInterval draws the chain is probed from the top again,
///    so a recovered primary is *re-adopted* (healthy -> degraded ->
///    healthy round trip, both transitions counted).
///  - If the whole chain fails, FailPolicy decides: FailClosed reports
///    DrawStatus::Failed (the VM turns this into a RandomnessFailure trap,
///    confining it to the current request), Degrade serves an accounted
///    emergency draw from an in-memory SplitMix64 stream — explicitly the
///    paper's *insecure* class, countable and alarmed, never silent.
///
/// Any draw not served by the healthy primary bumps a counter; the
/// invariant "degraded draws == injected/observed failure events" is what
/// the soak harness checks end to end.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RNG_RESILIENT_H
#define SMOKESTACK_RNG_RESILIENT_H

#include "rng/RandomSource.h"
#include "support/SplitMix64.h"

#include <cstddef>

namespace smokestack {

/// Decorator serving draws from the first healthy source of a chain.
class ResilientRandomSource final : public RandomSource {
public:
  /// What to do when every source in the chain fails a draw.
  enum class FailPolicy : uint8_t {
    FailClosed, ///< Report DrawStatus::Failed; no value is produced.
    Degrade,    ///< Serve an accounted emergency draw (SecurityLevel::None).
  };

  /// Coarse health of the decorated stack.
  enum class Health : uint8_t {
    Healthy,  ///< Serving from the primary, last draw fully healthy.
    Degraded, ///< Serving from a fallback, or last draw was degraded.
    Failed,   ///< Last draw failed closed.
  };

  struct Options {
    /// tryNext() attempts per source per draw (>= 1).
    unsigned RetriesPerSource = 2;
    /// Busy-wait spins before the second attempt; doubles per retry.
    unsigned BackoffBase = 16;
    /// Draws between recovery probes of sources better than the active one.
    uint64_t ReprobeInterval = 1024;
    FailPolicy Policy = FailPolicy::FailClosed;
  };

  static constexpr size_t MaxChain = 4;

  /// Builds a decorator over \p Sources (best first; at least one, at most
  /// MaxChain — extras are ignored). The sources must outlive this object.
  ResilientRandomSource(std::span<RandomSource *const> Sources, Options Opts);
  explicit ResilientRandomSource(std::span<RandomSource *const> Sources);

  uint64_t next() override;
  [[nodiscard]] bool tryNext(uint64_t &Out) override;

  /// Per-draw policy must apply to every buffered word, so fill() loops
  /// next() and reports the *worst* status of the batch (one failed draw
  /// poisons the whole refill rather than hiding inside it).
  void fill(std::span<uint64_t> Out) override;

  /// "resilient[<active source>]".
  const char *name() const override { return Name; }

  /// Classification of the source currently serving draws. Emergency draws
  /// under FailPolicy::Degrade are SecurityLevel::None regardless; health()
  /// and the counters make that state observable.
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
  /// Draws not served by a fully healthy primary (includes fallback and
  /// emergency draws and degraded primary draws).
  uint64_t degradedDraws() const { return DegradedDraws; }
  /// Draws served by a chain source other than the primary.
  uint64_t fallbackDraws() const { return FallbackDraws; }
  /// Failed tryNext() attempts beyond the first, per source, per draw.
  uint64_t retriesUsed() const { return RetriesUsed; }
  /// Total busy-wait spins burned in backoff.
  uint64_t backoffSpins() const { return BackoffSpins; }
  /// Transitions to a worse chain position.
  uint64_t failovers() const { return Failovers; }
  /// Transitions back to a better chain position (reprobe successes).
  uint64_t recoveries() const { return Recoveries; }
  /// Whole-chain failures reported as DrawStatus::Failed.
  uint64_t failClosedDraws() const { return FailClosedDraws; }
  /// Whole-chain failures served by the emergency stream (Degrade policy).
  uint64_t emergencyDraws() const { return EmergencyDraws; }

private:
  bool drawFromSource(size_t Index, uint64_t &Out);
  /// Attempts 2..RetriesPerSource of a draw, each after its backoff.
  [[gnu::noinline]] bool retrySource(size_t Index, uint64_t &Out);
  void adopt(size_t Index);

  RandomSource *Chain[MaxChain];
  size_t Length;
  Options Opts;
  size_t Active = 0;
  /// Draws left until the next recovery probe: counts down from
  /// Opts.ReprobeInterval, so every ReprobeInterval-th draw starts from
  /// the top of the chain without a division on the draw path.
  uint64_t ReprobeLeft;
  char Name[64];

  uint64_t DrawsServed = 0;
  uint64_t DegradedDraws = 0;
  uint64_t FallbackDraws = 0;
  uint64_t RetriesUsed = 0;
  uint64_t BackoffSpins = 0;
  uint64_t Failovers = 0;
  uint64_t Recoveries = 0;
  uint64_t FailClosedDraws = 0;
  uint64_t EmergencyDraws = 0;

  // Emergency stream for FailPolicy::Degrade. In-memory state, explicitly
  // the insecure class; seeded from a constant so whole-chain-death
  // behavior replays deterministically.
  SplitMix64 Emergency{0x52455349'4C49454EULL}; // "RESILIEN"
};

} // namespace smokestack

#endif // SMOKESTACK_RNG_RESILIENT_H
