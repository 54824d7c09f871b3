//===- faults/FaultInjector.cpp - Deterministic fault injection ------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultInjector.h"

#include "support/Statistics.h"

using namespace smokestack;

constinit thread_local FaultInjector *smokestack::detail::ThreadInjector =
    nullptr;
std::atomic<FaultInjector *> smokestack::detail::ProcessInjector{nullptr};

namespace {

Statistic NumInjectedProbes("faults.injected-probes",
                            "Probes failed by the installed fault plan");
Statistic NumInjectedEvents("faults.injected-events",
                            "Distinct injection events (streaks + deaths)");

/// Uniform double in [0, 1) from one stream step.
double nextUnit(SplitMix64 &Stream) {
  return static_cast<double>(Stream.next() >> 11) * 0x1.0p-53;
}

/// Decorrelates the per-site streams: two sites sharing a plan seed must
/// not see related decision sequences.
uint64_t siteSeed(uint64_t PlanSeed, unsigned Site) {
  SplitMix64 Mixer(PlanSeed ^ (0x5341'4654'4C55'4146ULL + Site));
  return Mixer.next();
}

} // namespace

const char *smokestack::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::RdRandStep:
    return "rdrand-step";
  case FaultSite::RdRandDeath:
    return "rdrand-death";
  case FaultSite::EntropyFill:
    return "entropy-fill";
  case FaultSite::AesNiPresence:
    return "aesni-presence";
  case FaultSite::RekeyEntropy:
    return "rekey-entropy";
  case FaultSite::WorkerCrash:
    return "worker-crash";
  case FaultSite::WorkerDeath:
    return "worker-death";
  case FaultSite::AcceptFailure:
    return "accept-failure";
  case FaultSite::NetPartialIo:
    return "net-partial-io";
  case FaultSite::ConnReset:
    return "conn-reset";
  case FaultSite::ClientStall:
    return "client-stall";
  case FaultSite::ShardKill:
    return "shard-kill";
  case FaultSite::ShardIpcIo:
    return "shard-ipc-io";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan &Plan) : Plan(Plan) {
  for (unsigned I = 0; I != NumFaultSites; ++I)
    State[I] = SiteState(siteSeed(Plan.Seed, I));
}

bool FaultInjector::shouldFail(FaultSite Site) {
  // Serialize the decision state: a ProcessFaultScope-installed injector
  // can be probed from several threads at once. Per-worker injectors never
  // contend here, so the uncontended lock is noise next to the draw itself.
  std::lock_guard<std::mutex> Lock(Mutex);
  const SitePlan &P = Plan.site(Site);
  SiteState &S = State[static_cast<unsigned>(Site)];
  ++S.Probes;

  // Permanent failure dominates everything, and each failed probe is its
  // own accounted event so post-death draws stay visible in the books.
  if (P.FailFromProbe != 0 && S.Probes >= P.FailFromProbe) {
    ++S.InjectedProbes;
    ++S.InjectedEvents;
    ++NumInjectedProbes;
    ++NumInjectedEvents;
    return true;
  }

  if (S.StreakLeft != 0) {
    --S.StreakLeft;
    ++S.InjectedProbes;
    ++NumInjectedProbes;
    return true;
  }

  if (P.Probability > 0.0 && nextUnit(S.Stream) < P.Probability) {
    S.StreakLeft = P.StreakLen > 0 ? P.StreakLen - 1 : 0;
    ++S.InjectedProbes;
    ++S.InjectedEvents;
    ++NumInjectedProbes;
    ++NumInjectedEvents;
    return true;
  }

  return false;
}

uint64_t FaultInjector::totalInjectedProbes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Total = 0;
  for (const SiteState &S : State)
    Total += S.InjectedProbes;
  return Total;
}

uint64_t FaultInjector::totalInjectedEvents() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Total = 0;
  for (const SiteState &S : State)
    Total += S.InjectedEvents;
  return Total;
}

FaultScope::FaultScope(FaultInjector &Injector)
    : Previous(detail::ThreadInjector) {
  detail::ThreadInjector = &Injector;
}

FaultScope::~FaultScope() { detail::ThreadInjector = Previous; }

ProcessFaultScope::ProcessFaultScope(FaultInjector &Injector)
    : Previous(detail::ProcessInjector.exchange(&Injector,
                                                std::memory_order_acq_rel)) {}

ProcessFaultScope::~ProcessFaultScope() {
  detail::ProcessInjector.store(Previous, std::memory_order_release);
}
