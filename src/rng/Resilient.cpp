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
Statistic NumFailovers("resilient.failovers",
                       "Transitions to a worse chain position");
Statistic NumRecoveries("resilient.recoveries",
                        "Transitions back to a better chain position");
Statistic NumFailClosed("resilient.failclosed-draws",
                        "Whole-chain failures reported as Failed");

} // namespace

ResilientRandomSource::ResilientRandomSource(
    std::span<RandomSource *const> Sources)
    : Length(Sources.size() < MaxChain ? Sources.size() : MaxChain) {
  assert(!Sources.empty() && "resilient chain needs at least one source");
  for (size_t I = 0; I != Length; ++I)
    Chain[I] = Sources[I];
  auto *Primary = dynamic_cast<RdRandSource *>(Chain[0]);
  if (Primary && Primary->simulated())
    SimulatedPrimary = Primary;
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

bool ResilientRandomSource::tryNext(uint64_t &Out) {
  // One attempt per source, from the top: a healed primary is re-adopted
  // by the first draw it serves.
  for (size_t I = 0; I != Length; ++I) {
    if (!Chain[I]->tryNext(Out))
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
