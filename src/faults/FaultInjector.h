//===- faults/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seed-replayable fault injection for the randomness and
/// detection stack. Smokestack's security argument rests on the prologue
/// randomness being available and the epilogue checks firing; DOP attackers
/// (Hu et al.) deliberately drive programs into rare error paths, so those
/// paths must be testable on demand.
///
/// The production code carries *probes* at the points where hardware or the
/// operating system can fail: one RDRAND retry attempt (CF=0), permanent
/// DRNG death, an entropy-pool read, AES-NI availability, and the entropy
/// draw behind an AES-CTR re-keying. A probe is two inline null-pointer
/// checks when no injector is installed — zero-cost in production — and
/// consults the installed FaultInjector otherwise. Injectors install into
/// a per-thread slot (FaultScope) or a process-wide fallback slot
/// (ProcessFaultScope); pool workers use the per-thread slot so each
/// worker's decision streams stay isolated and replayable.
///
/// Faults are scripted by a FaultPlan: per-site Bernoulli probability (with
/// configurable failure streak length) plus an optional probe index after
/// which the site fails permanently. Every decision is drawn from a per-site
/// SplitMix64 stream derived from the plan seed, so a plan replays
/// bit-identically against the same workload — the soak harness runs twice
/// and asserts identical outcomes — and injection at one site never
/// perturbs another site's stream.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_FAULTS_FAULTINJECTOR_H
#define SMOKESTACK_FAULTS_FAULTINJECTOR_H

#include "support/SplitMix64.h"

#include <atomic>
#include <cstdint>
#include <mutex>

namespace smokestack {

/// The failure points instrumented with probes.
enum class FaultSite : unsigned {
  RdRandStep = 0, ///< One _rdrand64_step attempt returns CF=0.
  RdRandDeath,    ///< The DRNG is dead: the whole draw fails, no retries.
  EntropyFill,    ///< An EntropySource::tryFill stalls or throws.
  AesNiPresence,  ///< AES-NI disappears (e.g. VM migration to older host).
  RekeyEntropy,   ///< The entropy draw behind an AES-CTR rekey is exhausted.
  WorkerCrash,    ///< An exception escapes a pool worker's serve path.
  WorkerDeath,    ///< A pool worker thread dies outright (no unwind).

  // Network-level sites (src/net/, DESIGN.md §13). These perturb the
  // socket front-end's I/O paths, never a request's outcome: the serving
  // layer below is deterministic in (RootSeed, Index), so network chaos
  // must degrade delivery, not results.
  AcceptFailure,  ///< accept() fails transiently (EMFILE/ENFILE pressure).
  NetPartialIo,   ///< A socket read/write moves only one byte (short I/O).
  ConnReset,      ///< A connection drops mid-stream (ECONNRESET/EPIPE).
  ClientStall,    ///< A send hits a stalled peer (kernel buffer full).

  // Process-isolation sites (DESIGN.md §15). Like the network sites these
  // perturb delivery, never results: a killed shard child is re-forked and
  // its in-flight requests replayed, and the replay is bit-identical
  // because every request is a pure function of (RootSeed, Index).
  ShardKill,   ///< A shard child process dies outright (seeded SIGKILL).
  ShardIpcIo,  ///< A parent<->child IPC read/write moves only one byte.
};

/// Number of FaultSite values (array bound).
inline constexpr unsigned NumFaultSites = 13;

/// Printable site name ("rdrand-step", ...).
const char *faultSiteName(FaultSite Site);

/// Per-site injection script.
struct SitePlan {
  /// Probability that a probe starts a failure streak.
  double Probability = 0.0;
  /// Consecutive failing probes per streak start (>= 1).
  unsigned StreakLen = 1;
  /// 1-based probe index from which every probe fails permanently
  /// (0 = never). Models DRNG death / persistent entropy exhaustion.
  uint64_t FailFromProbe = 0;
};

/// A complete, replayable injection script.
struct FaultPlan {
  /// Seed for every per-site decision stream.
  uint64_t Seed = 0;
  SitePlan Sites[NumFaultSites];

  SitePlan &site(FaultSite S) { return Sites[static_cast<unsigned>(S)]; }
  const SitePlan &site(FaultSite S) const {
    return Sites[static_cast<unsigned>(S)];
  }
};

/// Evaluates a FaultPlan probe by probe and keeps the books: how many
/// probes each site saw, how many were failed, and how many distinct
/// injection *events* occurred (a streak counts once at its start; each
/// permanently-failed probe counts as its own event, so after DRNG death
/// every failed draw remains visible in the accounting). The soak harness
/// checks the RNG layer's degradation counters against these numbers —
/// "zero silent degradations" means the two bookkeepings agree exactly.
class FaultInjector {
public:
  explicit FaultInjector(const FaultPlan &Plan);

  /// One probe at \p Site; returns true when the probe must fail.
  /// Serialized internally so a process-installed injector tolerates
  /// concurrent probes (the decision *order* under concurrency is then
  /// scheduling-dependent; replayable campaigns use one injector per
  /// worker thread via FaultScope instead).
  bool shouldFail(FaultSite Site);

  /// Probes evaluated at \p Site so far.
  uint64_t probeCount(FaultSite Site) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return State[static_cast<unsigned>(Site)].Probes;
  }
  /// Probes failed at \p Site (every member of a streak counts).
  uint64_t injectedProbes(FaultSite Site) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return State[static_cast<unsigned>(Site)].InjectedProbes;
  }
  /// Injection events at \p Site (streak starts + permanent-failure probes).
  uint64_t injectedEvents(FaultSite Site) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return State[static_cast<unsigned>(Site)].InjectedEvents;
  }
  uint64_t totalInjectedProbes() const;
  uint64_t totalInjectedEvents() const;

  const FaultPlan &plan() const { return Plan; }

private:
  struct SiteState {
    SiteState() : Stream(0) {}
    explicit SiteState(uint64_t Seed) : Stream(Seed) {}
    SplitMix64 Stream;
    uint64_t Probes = 0;
    uint64_t InjectedProbes = 0;
    uint64_t InjectedEvents = 0;
    unsigned StreakLeft = 0;
  };

  FaultPlan Plan;
  mutable std::mutex Mutex;
  SiteState State[NumFaultSites];
};

namespace detail {
/// Per-thread injector slot (nullptr = none installed on this thread).
/// Each pool worker installs its own injector through FaultScope, so one
/// worker's probes never consume — or even observe — another worker's
/// decision stream. constinit: the slot is statically zero, so reading it
/// is a plain TLS load, with no call to a lazy-initialization wrapper.
extern constinit thread_local FaultInjector *ThreadInjector;

/// Process-wide fallback slot, consulted only by threads with no
/// thread-local scope. Published with release semantics and read with
/// acquire semantics so a thread that observes the pointer also observes
/// the fully constructed injector behind it.
extern std::atomic<FaultInjector *> ProcessInjector;
} // namespace detail

/// Probe helper the production code calls at each fault site. Compiles to
/// two loads + null checks when no injector is installed: the thread-local
/// slot wins, the process-wide slot is the fallback. With neither
/// installed a probe is a constant false with no side effect, which is
/// what lets a hot path test faultInjectionActive() once and skip its
/// probes (the healthy draw of rng/RdRand.h).
inline bool faultProbe(FaultSite Site) {
  if (FaultInjector *Injector = detail::ThreadInjector)
    return Injector->shouldFail(Site);
  FaultInjector *Process =
      detail::ProcessInjector.load(std::memory_order_acquire);
  return Process != nullptr && Process->shouldFail(Site);
}

/// True while some injector is installed for the calling thread (its own
/// FaultScope or the process-wide slot).
inline bool faultInjectionActive() {
  return detail::ThreadInjector != nullptr ||
         detail::ProcessInjector.load(std::memory_order_acquire) != nullptr;
}

/// RAII installation of an injector for the *calling thread*. Scopes nest;
/// the previous injector is restored on destruction. Thread-locality is
/// what gives pool workers stream isolation: a FaultScope on worker A is
/// invisible to worker B.
class FaultScope {
public:
  explicit FaultScope(FaultInjector &Injector);
  ~FaultScope();
  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;

private:
  FaultInjector *Previous;
};

/// RAII publication of a process-wide injector, visible to every thread
/// that has no FaultScope of its own. Installation and removal use
/// release/acquire publication, so it is safe against probes racing on
/// other threads; the shared injector serializes its own decision state.
class ProcessFaultScope {
public:
  explicit ProcessFaultScope(FaultInjector &Injector);
  ~ProcessFaultScope();
  ProcessFaultScope(const ProcessFaultScope &) = delete;
  ProcessFaultScope &operator=(const ProcessFaultScope &) = delete;

private:
  FaultInjector *Previous;
};

} // namespace smokestack

#endif // SMOKESTACK_FAULTS_FAULTINJECTOR_H
