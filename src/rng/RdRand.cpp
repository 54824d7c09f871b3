//===- rng/RdRand.cpp - Hardware true-random source ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rng/RdRand.h"

#include "faults/FaultInjector.h"
#include "support/Statistics.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define SMOKESTACK_X86_64 1
#else
#define SMOKESTACK_X86_64 0
#endif

using namespace smokestack;

namespace {

Statistic NumRetryFailures("rng.rdrand-retry-failures",
                           "RDRAND attempts that returned CF=0");
Statistic NumDrngFailures("rng.rdrand-drng-failures",
                          "Draws on which the DRNG failed outright");
Statistic NumEmergencyDraws(
    "rng.rdrand-emergency-draws",
    "next() draws degraded to the seed-entropy fallback");
Statistic NumFailClosed("rng.rdrand-failclosed-draws",
                        "Draws on which RDRAND failed closed");

} // namespace

bool smokestack::rdRandAvailable() {
#if SMOKESTACK_X86_64
  return __builtin_cpu_supports("rdrnd");
#else
  return false;
#endif
}

#if SMOKESTACK_X86_64
namespace {
/// Bounded-retry hardware draw. Returns false on retry exhaustion instead
/// of leaking the zero-initialized scratch word as "randomness".
__attribute__((target("rdrnd"))) bool
drawRdRandHardware(uint64_t &Out, uint64_t &RetryFailures) {
  for (int Attempt = 0; Attempt != RdRandSource::RetryLimit; ++Attempt) {
    if (faultProbe(FaultSite::RdRandStep)) {
      ++RetryFailures;
      ++NumRetryFailures;
      continue;
    }
    unsigned long long Value = 0;
    if (_rdrand64_step(&Value)) {
      Out = Value;
      return true;
    }
    ++RetryFailures;
    ++NumRetryFailures;
  }
  return false;
}
} // namespace
#endif

RdRandSource::RdRandSource(EntropySource &Fallback, bool ForceFallback)
    : Fallback(Fallback), UseHardware(!ForceFallback && rdRandAvailable()),
      Simulated(UseHardware
                    ? nullptr
                    : dynamic_cast<DeterministicEntropySource *>(&Fallback)) {}

bool RdRandSource::drawProbed(uint64_t &Out) {
  // Permanent-death fault: the whole DRNG is gone; no retry helps.
  if (faultProbe(FaultSite::RdRandDeath)) {
    ++FailureEvents;
    ++NumDrngFailures;
    return false;
  }
#if SMOKESTACK_X86_64
  if (UseHardware) {
    if (drawRdRandHardware(Out, RetryFailures))
      return true;
    ++FailureEvents;
    ++NumDrngFailures;
    return false;
  }
#endif
  // Simulated DRNG: the entropy stand-in behind the same bounded retry
  // loop, so RDRAND failure modes are testable on every host.
  for (int Attempt = 0; Attempt != RetryLimit; ++Attempt) {
    if (faultProbe(FaultSite::RdRandStep)) {
      ++RetryFailures;
      ++NumRetryFailures;
      continue;
    }
    if (Fallback.tryNext64(Out))
      return true;
    ++RetryFailures;
    ++NumRetryFailures;
  }
  ++FailureEvents;
  ++NumDrngFailures;
  return false;
}

bool RdRandSource::tryNext(uint64_t &Out) {
  if (drawFromDrng(Out)) {
    setDrawStatus(DrawStatus::Ok);
    return true;
  }
  setDrawStatus(DrawStatus::Failed);
  return false;
}

uint64_t RdRandSource::next() {
  uint64_t Out = 0;
  if (drawFromDrng(Out)) {
    setDrawStatus(DrawStatus::Ok);
    return Out;
  }
  // DRNG exhausted: one accounted emergency draw from the seed-entropy
  // source (same High security class) — an explicit degradation, not the
  // old fail-open that returned zero as if it were random.
  if (Fallback.tryNext64(Out)) {
    ++EmergencyDraws;
    ++NumEmergencyDraws;
    setDrawStatus(DrawStatus::Degraded);
    return Out;
  }
  ++NumFailClosed;
  setDrawStatus(DrawStatus::Failed);
  return 0; // must not be used: lastDrawStatus() == Failed
}
