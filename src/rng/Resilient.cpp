//===- rng/Resilient.cpp - Fallback-chain randomness decorator -----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rng/Resilient.h"

#include "support/Statistics.h"

#include <cassert>
#include <cstdio>

using namespace smokestack;

namespace {

Statistic NumDegradedDraws("resilient.degraded-draws",
                           "Draws not served by a healthy primary");
Statistic NumFallbackDraws("resilient.fallback-draws",
                           "Draws served by a non-primary chain source");
Statistic NumRetries("resilient.retries",
                     "Failed per-source draw attempts beyond the first");
Statistic NumFailovers("resilient.failovers",
                       "Transitions to a worse chain position");
Statistic NumRecoveries("resilient.recoveries",
                        "Transitions back to a better chain position");
Statistic NumFailClosed("resilient.failclosed-draws",
                        "Whole-chain failures reported as Failed");
Statistic NumEmergency("resilient.emergency-draws",
                       "Whole-chain failures served by the emergency stream");

/// Busy-wait that the optimizer cannot elide; models the recommended
/// RDRAND retry pause without sleeping (draws happen in prologues).
void backoffSpin(uint64_t Spins) {
  volatile uint64_t Sink = 0;
  for (uint64_t I = 0; I != Spins; ++I)
    Sink = I;
  (void)Sink;
}

} // namespace

ResilientRandomSource::ResilientRandomSource(
    std::span<RandomSource *const> Sources)
    : ResilientRandomSource(Sources, Options()) {}

ResilientRandomSource::ResilientRandomSource(
    std::span<RandomSource *const> Sources, Options Opts)
    : Length(Sources.size() < MaxChain ? Sources.size() : MaxChain),
      Opts(Opts) {
  assert(!Sources.empty() && "resilient chain needs at least one source");
  if (this->Opts.RetriesPerSource == 0)
    this->Opts.RetriesPerSource = 1;
  if (this->Opts.ReprobeInterval == 0)
    this->Opts.ReprobeInterval = 1;
  ReprobeLeft = this->Opts.ReprobeInterval;
  for (size_t I = 0; I != Length; ++I)
    Chain[I] = Sources[I];
  adopt(0);
}

void ResilientRandomSource::adopt(size_t Index) {
  Active = Index;
  std::snprintf(Name, sizeof(Name), "resilient[%s]", Chain[Active]->name());
}

void ResilientRandomSource::resetHealth() {
  if (Active != 0)
    adopt(0);
}

bool ResilientRandomSource::drawFromSource(size_t Index, uint64_t &Out) {
  // The first attempt stays on the draw path; retries are out of line.
  return Chain[Index]->tryNext(Out) || retrySource(Index, Out);
}

bool ResilientRandomSource::retrySource(size_t Index, uint64_t &Out) {
  for (unsigned Attempt = 1; Attempt < Opts.RetriesPerSource; ++Attempt) {
    uint64_t Spins = static_cast<uint64_t>(Opts.BackoffBase) << (Attempt - 1);
    BackoffSpins += Spins;
    backoffSpin(Spins);
    ++RetriesUsed;
    ++NumRetries;
    if (Chain[Index]->tryNext(Out))
      return true;
  }
  return false;
}

bool ResilientRandomSource::tryNext(uint64_t &Out) {
  // Sticky failover with periodic recovery probes: normally start at the
  // active source; every ReprobeInterval-th draw starts from the top so a
  // healed primary is re-adopted.
  size_t Start = Active;
  if (--ReprobeLeft == 0) {
    ReprobeLeft = Opts.ReprobeInterval;
    Start = 0;
  }
  for (size_t I = Start; I != Length; ++I) {
    if (!drawFromSource(I, Out))
      continue;
    if (I < Active) {
      ++Recoveries;
      ++NumRecoveries;
      adopt(I);
    } else if (I > Active) {
      ++Failovers;
      ++NumFailovers;
      adopt(I);
    }
    bool Degraded =
        I != 0 || Chain[I]->lastDrawStatus() == DrawStatus::Degraded;
    ++DrawsServed;
    if (Degraded) {
      ++DegradedDraws;
      ++NumDegradedDraws;
    }
    if (I != 0) {
      ++FallbackDraws;
      ++NumFallbackDraws;
    }
    setDrawStatus(Degraded ? DrawStatus::Degraded : DrawStatus::Ok);
    return true;
  }
  if (Opts.Policy == FailPolicy::Degrade) {
    Out = Emergency.next();
    ++DrawsServed;
    ++DegradedDraws;
    ++NumDegradedDraws;
    ++EmergencyDraws;
    ++NumEmergency;
    setDrawStatus(DrawStatus::Degraded);
    return true;
  }
  ++FailClosedDraws;
  ++NumFailClosed;
  setDrawStatus(DrawStatus::Failed);
  return false;
}

uint64_t ResilientRandomSource::next() {
  uint64_t Out = 0;
  if (tryNext(Out))
    return Out;
  return 0; // must not be used: lastDrawStatus() == Failed
}

void ResilientRandomSource::fill(std::span<uint64_t> Out) {
  DrawStatus Worst = DrawStatus::Ok;
  for (uint64_t &Word : Out) {
    Word = next();
    if (static_cast<uint8_t>(lastDrawStatus()) >
        static_cast<uint8_t>(Worst))
      Worst = lastDrawStatus();
  }
  setDrawStatus(Worst);
}

ResilientRandomSource::Health ResilientRandomSource::health() const {
  if (lastDrawStatus() == DrawStatus::Failed)
    return Health::Failed;
  if (Active != 0 || lastDrawStatus() == DrawStatus::Degraded)
    return Health::Degraded;
  return Health::Healthy;
}

SecurityLevel ResilientRandomSource::securityLevel() const {
  return Chain[Active]->securityLevel();
}

std::span<const uint8_t> ResilientRandomSource::disclosableState() const {
  return Chain[Active]->disclosableState();
}

std::span<uint8_t> ResilientRandomSource::mutableDisclosableState() {
  return Chain[Active]->mutableDisclosableState();
}
