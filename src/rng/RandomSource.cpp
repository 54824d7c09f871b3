//===- rng/RandomSource.cpp - Randomness-source interface ----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rng/RandomSource.h"

#include "rng/AesCtr.h"
#include "rng/Pseudo.h"
#include "rng/RdRand.h"
#include "support/ErrorHandling.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace smokestack;

namespace {

Statistic NumBatchRefills("rng.batch-refills",
                          "Buffered-draw refills served through fill()");

} // namespace

RandomSource::~RandomSource() = default;

void RandomSource::fill(std::span<uint64_t> Out) {
  // A batch reports the *worst* status of its draws: one failed word must
  // poison the refill (the buffered consumer cannot tell which word it
  // was), never be hidden by a later healthy draw.
  DrawStatus Worst = DrawStatus::Ok;
  for (uint64_t &Word : Out) {
    Word = next();
    if (static_cast<uint8_t>(lastDrawStatus()) > static_cast<uint8_t>(Worst))
      Worst = lastDrawStatus();
  }
  setDrawStatus(Worst);
}

void RandomSource::setBatchSize(unsigned NewBatch) {
  Batch = std::clamp(NewBatch, 1u, MaxBatchSize);
  if (Batch > 1 && !Buffer)
    Buffer = std::make_unique<uint64_t[]>(MaxBatchSize);
  // Discard pending words: a batch-size change restarts buffering so the
  // stream position is well-defined for tests and attack models.
  BufPos = BufLen = 0;
}

void RandomSource::refillBuffer() {
  fill({Buffer.get(), Batch});
  BufPos = 0;
  BufLen = Batch;
  ++Refills;
  ++NumBatchRefills;
}

const char *smokestack::drawStatusName(DrawStatus Status) {
  switch (Status) {
  case DrawStatus::Ok:
    return "ok";
  case DrawStatus::Degraded:
    return "degraded";
  case DrawStatus::Failed:
    return "failed";
  }
  smokestack_unreachable("unknown draw status");
}

const char *smokestack::securityLevelName(SecurityLevel Level) {
  switch (Level) {
  case SecurityLevel::None:
    return "None";
  case SecurityLevel::Low:
    return "Low";
  case SecurityLevel::High:
    return "High";
  }
  smokestack_unreachable("unknown security level");
}

std::unique_ptr<RandomSource>
smokestack::makeRandomSource(const std::string &Scheme,
                             EntropySource &Entropy) {
  if (Scheme == "pseudo")
    return std::make_unique<PseudoRandomSource>(Entropy);
  if (Scheme == "aes1")
    return std::make_unique<AesCtrRandomSource>(Entropy, 1);
  if (Scheme == "aes10")
    return std::make_unique<AesCtrRandomSource>(Entropy, 10);
  if (Scheme == "rdrand")
    return std::make_unique<RdRandSource>(Entropy);
  return nullptr;
}
