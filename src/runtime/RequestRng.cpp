//===- runtime/RequestRng.cpp - Per-worker randomness chain ---------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/RequestRng.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "runtime/DeriveSeed.h"

using namespace smokestack;

namespace {

Histogram ReseedNanos(
    "rng.reseed-nanos",
    "RequestRng chain rebuild latency per reseed (obs timing only)");

} // namespace

RequestRng::Books &RequestRng::Books::operator+=(const Books &O) {
  DrawsServed += O.DrawsServed;
  DegradedDraws += O.DegradedDraws;
  FallbackDraws += O.FallbackDraws;
  FailClosedDraws += O.FailClosedDraws;
  Failovers += O.Failovers;
  Recoveries += O.Recoveries;
  DrngRetryFailures += O.DrngRetryFailures;
  DrngFailureEvents += O.DrngFailureEvents;
  AesRekeys += O.AesRekeys;
  FailedRekeys += O.FailedRekeys;
  StaleKeyDraws += O.StaleKeyDraws;
  UnkeyedDraws += O.UnkeyedDraws;
  BufferRefills += O.BufferRefills;
  return *this;
}

RequestRng::Books &RequestRng::Books::operator-=(const Books &O) {
  DrawsServed -= O.DrawsServed;
  DegradedDraws -= O.DegradedDraws;
  FallbackDraws -= O.FallbackDraws;
  FailClosedDraws -= O.FailClosedDraws;
  Failovers -= O.Failovers;
  Recoveries -= O.Recoveries;
  DrngRetryFailures -= O.DrngRetryFailures;
  DrngFailureEvents -= O.DrngFailureEvents;
  AesRekeys -= O.AesRekeys;
  FailedRekeys -= O.FailedRekeys;
  StaleKeyDraws -= O.StaleKeyDraws;
  UnkeyedDraws -= O.UnkeyedDraws;
  BufferRefills -= O.BufferRefills;
  return *this;
}

RequestRng::Books RequestRng::liveBooks() const {
  Books B;
  if (!Chain)
    return B;
  B.DrawsServed = Chain->drawsServed();
  B.DegradedDraws = Chain->degradedDraws();
  B.FallbackDraws = Chain->fallbackDraws();
  B.FailClosedDraws = Chain->failClosedDraws();
  B.Failovers = Chain->failovers();
  B.Recoveries = Chain->recoveries();
  B.DrngRetryFailures = Primary->retryFailures();
  B.DrngFailureEvents = Primary->drngFailureEvents();
  B.AesRekeys = Fallback->rekeyCount();
  B.FailedRekeys = Fallback->failedRekeys();
  B.StaleKeyDraws = Fallback->staleKeyDraws();
  B.UnkeyedDraws = Fallback->unkeyedDrawFailures();
  B.BufferRefills = Chain->refillCount();
  return B;
}

RequestRng::Books RequestRng::books() const {
  Books Total = Accumulated;
  Total += liveBooks();
  return Total;
}

void RequestRng::reset() {
  // Teardown order mirrors reseed(): the decorator holds raw pointers into
  // the sources, so it goes first. No banking here — the caller owns the
  // books-banking step so reset-vs-reconstruct stays a pure swap.
  Chain.reset();
  Fallback.reset();
  Primary.reset();
  AesEntropy.reset();
  DrngEntropy.reset();
  Accumulated = Books();
}

void RequestRng::reseed(uint64_t RootSeed, uint64_t Index) {
  bool Timed = obsTimingEnabled();
  uint64_t Start = Timed ? obsNowNanos() : 0;

  Accumulated += liveBooks();

  // Destruction order mirrors construction: the decorator holds raw
  // pointers into the sources, so it goes first.
  Chain.reset();
  Fallback.reset();
  Primary.reset();

  DrngEntropy.emplace(deriveSeed(RootSeed, Index, SeedLane::DrngEntropy));
  AesEntropy.emplace(deriveSeed(RootSeed, Index, SeedLane::AesEntropy));
  // ForceFallback: the simulated DRNG, so every host replays the same
  // stream and the fault sites are exercised deterministically.
  Primary.emplace(*DrngEntropy, /*ForceFallback=*/true);
  Fallback.emplace(*AesEntropy, Cfg.AesRounds, Cfg.RekeyInterval);
  RandomSource *Sources[] = {&*Primary, &*Fallback};
  Chain.emplace(std::span<RandomSource *const>(Sources, 2));
  if (Cfg.BatchSize > 1)
    Chain->setBatchSize(Cfg.BatchSize);

  if (Timed)
    ReseedNanos.record(obsNowNanos() - Start);
}
