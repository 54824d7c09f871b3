//===- rng/RandomSource.h - Randomness-source interface --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface behind which the four randomness schemes of the paper's
/// Table I live (pseudo, AES-1, AES-10, RDRAND). The permutation-selection
/// code in the Smokestack prologue draws one value per hardened function
/// invocation from a RandomSource.
///
/// The paper's threat model grants the attacker arbitrary *read and write*
/// access to data memory but not to registers. disclosableState() models
/// that: it exposes exactly the generator state that lives in attacker-
/// readable memory, which is what makes the `pseudo` scheme unsafe and the
/// AES/RDRAND schemes disclosure-resistant.
///
/// Batched draws: fill() produces many words per call so schemes can
/// amortize per-draw setup (the AES-CTR source encrypts a block of counters
/// per refill, removing the LastRandom feedback latency from all but one
/// block per group). nextBuffered() serves single draws from an internal
/// buffer refilled via fill(); with the default batch size of 1 it is
/// exactly next(), so enabling buffering is an explicit opt-in
/// (setBatchSize). Buffered-but-undrawn words necessarily live in data
/// memory and are therefore attacker-visible for *every* scheme; they are
/// exposed through bufferedState() and must be counted as part of the
/// disclosable surface alongside disclosableState().
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RNG_RANDOMSOURCE_H
#define SMOKESTACK_RNG_RANDOMSOURCE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace smokestack {

/// Security classification used in the paper's Table I.
enum class SecurityLevel {
  None, ///< Attacker can reconstruct the stream (memory-resident state).
  Low,  ///< Cryptographically weakened (e.g. 1-round AES).
  High, ///< Cryptographically secure or true random.
};

/// Returns a printable name for \p Level ("None", "Low", "High").
const char *securityLevelName(SecurityLevel Level);

/// Health classification of the most recent draw. The randomness stack
/// never downgrades silently: a draw is either fully healthy, explicitly
/// degraded (served by a fallback path or under a stale AES key, always
/// with a bumped counter), or failed closed (the returned value must not
/// be used; the VM turns this into a RandomnessFailure trap).
enum class DrawStatus : uint8_t {
  Ok,       ///< Drawn from the scheme's primary, healthy path.
  Degraded, ///< Served, but through an accounted degradation.
  Failed,   ///< Fail-closed: no usable randomness was produced.
};

/// Printable status name ("ok", "degraded", "failed").
const char *drawStatusName(DrawStatus Status);

/// A source of 64-bit random values for permutation selection.
class RandomSource {
public:
  /// Upper bound on setBatchSize().
  static constexpr unsigned MaxBatchSize = 1024;

  virtual ~RandomSource();

  /// Returns the next random value. Sources with failure modes record the
  /// draw's health in lastDrawStatus(); on DrawStatus::Failed the returned
  /// value is meaningless and must not be used as randomness.
  virtual uint64_t next() = 0;

  /// Failure-honest draw: returns false instead of a value when the source
  /// cannot produce randomness (the resilience layer's preferred entry
  /// point). The default forwards to next() and reports failure via
  /// lastDrawStatus().
  [[nodiscard]] virtual bool tryNext(uint64_t &Out) {
    Out = next();
    return lastDrawStatus() != DrawStatus::Failed;
  }

  /// Health of the most recent next()/tryNext()/fill() call. Buffered
  /// draws (nextBuffered) report the status of the refill that produced
  /// the served word's batch.
  DrawStatus lastDrawStatus() const { return LastStatus; }

  /// Fills \p Out with consecutive random words. The default implementation
  /// loops next(), so for unbatched schemes the filled sequence is
  /// bit-identical to repeated next() calls. Schemes with per-draw setup
  /// cost override this with a genuinely batched refill (see AesCtr).
  virtual void fill(std::span<uint64_t> Out);

  /// Returns one word, served from an internal buffer that is refilled
  /// batchSize() words at a time via fill(). With the default batch size
  /// of 1 this forwards to next() and buffers nothing.
  uint64_t nextBuffered() {
    if (Batch <= 1)
      return next();
    if (BufPos == BufLen)
      refillBuffer();
    return Buffer[BufPos++];
  }

  /// Sets the refill granularity of nextBuffered() (clamped to
  /// [1, MaxBatchSize]). Any pending buffered words are discarded.
  void setBatchSize(unsigned NewBatch);
  unsigned batchSize() const { return Batch; }

  /// Number of fill()-based buffer refills performed so far.
  uint64_t refillCount() const { return Refills; }

  /// Buffered-but-undrawn words. These sit in ordinary data memory, so an
  /// attacker with a disclosure primitive reads upcoming draws directly —
  /// for every scheme, even the disclosure-resistant ones. Callers trading
  /// throughput for buffering accept that the last partial batch is
  /// attacker-visible; disclosableState() continues to model only the
  /// scheme's own resident state.
  std::span<const uint8_t> bufferedState() const {
    if (BufPos >= BufLen)
      return {};
    return {reinterpret_cast<const uint8_t *>(Buffer.get() + BufPos),
            (BufLen - BufPos) * sizeof(uint64_t)};
  }

  /// Short scheme name as used in the paper ("pseudo", "AES-1", ...).
  virtual const char *name() const = 0;

  /// Security classification against the paper's threat model.
  virtual SecurityLevel securityLevel() const = 0;

  /// The generator state that resides in attacker-readable data memory.
  ///
  /// An attacker with a memory-disclosure primitive can read these bytes and
  /// (for stateful schemes) write them. Empty for schemes whose state lives
  /// only in registers or hardware. Does not include bufferedState(), which
  /// is a separate, scheme-independent disclosure channel.
  virtual std::span<const uint8_t> disclosableState() const { return {}; }

  /// Mutable view of the same state, for modeling state-corruption attacks.
  virtual std::span<uint8_t> mutableDisclosableState() { return {}; }

protected:
  /// Records the health of the draw in flight.
  void setDrawStatus(DrawStatus Status) { LastStatus = Status; }

private:
  void refillBuffer();

  std::unique_ptr<uint64_t[]> Buffer;
  unsigned Batch = 1;
  unsigned BufPos = 0;
  unsigned BufLen = 0;
  uint64_t Refills = 0;
  DrawStatus LastStatus = DrawStatus::Ok;
};

class EntropySource;

/// The source of scheme \p Scheme — "pseudo", "aes1", "aes10" or "rdrand"
/// — seeded from \p Entropy, or nullptr for any other name.
std::unique_ptr<RandomSource> makeRandomSource(const std::string &Scheme,
                                               EntropySource &Entropy);

} // namespace smokestack

#endif // SMOKESTACK_RNG_RANDOMSOURCE_H
