//===- obs/Trace.h - Per-request span tracing ------------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request tracing for the pool's serve path (DESIGN.md §11). Every
/// serve attempt produces one TraceSpan — which worker ran it, the attempt
/// number, its disposition (completed / trapped / crashed / died /
/// cancelled / poisoned), how long it waited in the queue, how long the
/// RNG reseed and the VM run took, the fuel it burned, and the RNG words
/// it drew. Spans land in per-worker single-producer/single-consumer ring
/// buffers. A worker whose ring is half full drains every ring itself
/// (and finish() drains them last), so collection is lossless without a
/// timer thread and without any lock on the common path; if a ring ever
/// fills anyway the newest span is dropped and counted, never blocked on.
///
/// Zero-cost-when-off follows the FaultInjector probe pattern: tracing is
/// enabled by installing a TraceRecorder pointer in PoolOptions, so the
/// disabled hot path pays exactly one null-pointer test per request.
/// Wall-clock reads for the global histograms (vm.request-nanos,
/// rng.reseed-nanos, pool.rebuild-nanos) are separately gated on the
/// process-wide obs-timing flag below, so a build that never enables
/// timing never calls the clock.
///
/// Determinism: spans and timings are observational only — nothing here
/// feeds a digest, a seed, or a scheduling decision, which is why the
/// chaos soak can demand bit-identical digests with tracing on and off.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_OBS_TRACE_H
#define SMOKESTACK_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace smokestack {

class MetricsRegistry;

namespace detail {
/// Nesting depth of ObsTimingScope plus sticky enables; nonzero = timing
/// probes read the clock.
extern std::atomic<uint32_t> ObsTimingDepth;
} // namespace detail

/// The timing probe: one relaxed atomic load. Code that feeds wall-clock
/// histograms asks this first and skips the clock entirely when disabled.
inline bool obsTimingEnabled() {
  return detail::ObsTimingDepth.load(std::memory_order_relaxed) != 0;
}

/// Monotonic nanoseconds (steady clock). Only call under obsTimingEnabled()
/// on hot paths.
inline uint64_t obsNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide sticky enable (tools: smokestack-opt -metrics=FILE).
void enableObsTiming();

/// RAII enable for benches and tests; nests.
class ObsTimingScope {
public:
  ObsTimingScope();
  ~ObsTimingScope();
  ObsTimingScope(const ObsTimingScope &) = delete;
  ObsTimingScope &operator=(const ObsTimingScope &) = delete;
};

/// Where one serve attempt (or quarantine decision) ended up.
enum class SpanDisposition : uint8_t {
  Completed = 0, ///< Served to a normal terminal outcome.
  Trapped,       ///< Served, but the request trapped.
  Crashed,       ///< The attempt threw; contained, retried or poisoned.
  Died,          ///< Injected hard worker death took the attempt down.
  Cancelled,     ///< Cut short by the cooperative cancel flag.
  Poisoned,      ///< Quarantined: attempt budget exhausted or pool death.
};

/// Number of SpanDisposition values (array bound).
inline constexpr unsigned NumSpanDispositions = 6;

/// Printable disposition name ("completed", ...).
const char *spanDispositionName(SpanDisposition D);

/// One record of the request lifecycle enqueue -> dequeue -> reseed ->
/// execute -> retire. Nanosecond fields are zero when obs timing was off
/// or the stage never ran (e.g. a death fires before the reseed).
struct TraceSpan {
  uint64_t RequestIndex = 0;
  uint32_t Worker = 0;
  /// Attempts burned including this one (1 = first serve).
  uint32_t Attempt = 1;
  SpanDisposition Disposition = SpanDisposition::Completed;
  uint64_t QueueNanos = 0;  ///< enqueue -> dequeue wait.
  uint64_t ReseedNanos = 0; ///< RequestRng chain rebuild.
  uint64_t ExecNanos = 0;   ///< Interpreter::runRequest.
  uint64_t Steps = 0;       ///< Fuel consumed by the run.
  uint64_t RngDraws = 0;    ///< Words drawn from the resilient chain.
};

/// Bounded single-producer/single-consumer span ring. The producer is one
/// worker thread; the consumer is whichever thread is inside
/// TraceRecorder::collect() (any worker while the pool serves, finish()
/// after the joins — the recorder's mutex serializes them). push() never
/// blocks: a full ring drops the new span and counts it.
class TraceRing {
public:
  explicit TraceRing(size_t CapacityPow2);

  /// Producer side. Returns false (and counts a drop) when full.
  bool push(const TraceSpan &S);

  /// Consumer side: moves every currently-visible span into \p Out.
  /// Returns the number drained.
  size_t drainInto(std::vector<TraceSpan> &Out);

  /// Spans pushed and not yet drained. Exact on the producer's thread up
  /// to a concurrent drain, which only shrinks it.
  size_t size() const {
    return static_cast<size_t>(Tail.load(std::memory_order_relaxed) -
                               Head.load(std::memory_order_acquire));
  }

  uint64_t dropped() const { return Dropped.load(std::memory_order_relaxed); }
  size_t capacity() const { return Slots.size(); }

private:
  std::vector<TraceSpan> Slots;
  const uint64_t Mask;
  /// Monotonic positions; Slots[pos & Mask]. Producer owns Tail, consumer
  /// owns Head.
  alignas(64) std::atomic<uint64_t> Tail{0};
  alignas(64) std::atomic<uint64_t> Head{0};
  std::atomic<uint64_t> Dropped{0};
};

/// Owns the per-worker rings plus a central store collect() drains them
/// into. Install a recorder via PoolOptions::Tracer to enable pool
/// tracing; leave it null for the zero-cost path.
class TraceRecorder {
public:
  static constexpr size_t DefaultRingCapacity = 1 << 14;

  explicit TraceRecorder(size_t RingCapacity = DefaultRingCapacity);

  /// The ring worker \p WorkerId produces into. Creates it on first use
  /// (cold path, mutex-guarded); subsequent calls are lookups.
  TraceRing &ringFor(unsigned WorkerId);

  /// Drains every ring into the central store. Callable from any thread:
  /// the mutex makes the caller the single consumer of every ring for the
  /// duration. Returns the number of spans moved.
  size_t collect();

  /// collect() + hand over the central store, sorted by (RequestIndex,
  /// Attempt). The store is left empty.
  std::vector<TraceSpan> take();

  /// Spans currently sitting in the central store.
  size_t collectedSpans() const;

  /// Spans dropped across all rings (0 == the drain was lossless).
  uint64_t droppedSpans() const;

  /// Gauges for the exporters: span counts per disposition, total, and
  /// drops.
  void exportMetrics(MetricsRegistry &R) const;

private:
  const size_t RingCapacity;

  mutable std::mutex Mutex;
  /// Indexed by worker id; slots are never reused for a different worker,
  /// and a rebuilt worker keeps its ring.
  std::vector<std::unique_ptr<TraceRing>> Rings;
  std::vector<TraceSpan> Store;
  uint64_t PerDisposition[NumSpanDispositions] = {};
};

} // namespace smokestack

#endif // SMOKESTACK_OBS_TRACE_H
