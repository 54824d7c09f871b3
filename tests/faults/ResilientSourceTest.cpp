//===- tests/faults/ResilientSourceTest.cpp - Resilient RNG tests ---------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// ResilientRandomSource contract tests: fallback ordering, reprobe
// recovery, failing closed, worst-of-batch fill status, and the
// decorator's accounting. Plus scheme-level fault-plan replay: every
// randomness scheme must produce a bit-identical draw/status sequence when
// the same plan is replayed, and batched draws must equal serial draws
// under the same plan (the fault probes are consumed in the same order).
//
//===----------------------------------------------------------------------===//

#include "rng/Resilient.h"

#include "faults/FaultInjector.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "rng/Pseudo.h"
#include "rng/RdRand.h"

#include "gtest/gtest.h"

#include <array>
#include <memory>
#include <vector>

using namespace smokestack;

namespace {

/// Test double whose per-call DrawStatus follows a cyclic script.
/// Successful draws count 1, 2, 3, ... so tests can tell sources apart.
class ScriptedSource : public RandomSource {
public:
  ScriptedSource(std::vector<DrawStatus> Script, const char *Name,
                 uint64_t ValueBase = 0,
                 SecurityLevel Level = SecurityLevel::High)
      : Script(std::move(Script)), Label(Name), Counter(ValueBase),
        Level(Level) {}

  uint64_t next() override {
    ++Calls;
    DrawStatus S =
        Script.empty() ? DrawStatus::Ok : Script[Pos++ % Script.size()];
    setDrawStatus(S);
    return S == DrawStatus::Failed ? 0 : ++Counter;
  }
  const char *name() const override { return Label; }
  SecurityLevel securityLevel() const override { return Level; }

  void setScript(std::vector<DrawStatus> NewScript) {
    Script = std::move(NewScript);
    Pos = 0;
  }
  uint64_t calls() const { return Calls; }

private:
  std::vector<DrawStatus> Script;
  const char *Label;
  size_t Pos = 0;
  uint64_t Counter;
  uint64_t Calls = 0;
  SecurityLevel Level;
};

TEST(ResilientSourceTest, HealthyPrimaryServesEveryDraw) {
  ScriptedSource Primary({DrawStatus::Ok}, "primary");
  ScriptedSource Backup({DrawStatus::Ok}, "backup", 1000);
  RandomSource *Chain[] = {&Primary, &Backup};
  ResilientRandomSource R({Chain, 2});

  for (uint64_t I = 1; I <= 10; ++I)
    EXPECT_EQ(R.next(), I);
  EXPECT_EQ(R.health(), ResilientRandomSource::Health::Healthy);
  EXPECT_EQ(R.activeIndex(), 0u);
  EXPECT_EQ(R.drawsServed(), 10u);
  EXPECT_EQ(R.degradedDraws(), 0u);
  EXPECT_EQ(R.fallbackDraws(), 0u);
  EXPECT_EQ(Backup.calls(), 0u);
  EXPECT_STREQ(R.name(), "resilient[primary]");
}

TEST(ResilientSourceTest, FailoverFollowsChainOrder) {
  ScriptedSource Primary({DrawStatus::Failed}, "primary");
  ScriptedSource Backup({DrawStatus::Ok}, "backup", 1000);
  RandomSource *Chain[] = {&Primary, &Backup};
  ResilientRandomSource R({Chain, 2});

  for (uint64_t I = 1; I <= 5; ++I)
    EXPECT_EQ(R.next(), 1000 + I);
  EXPECT_EQ(R.health(), ResilientRandomSource::Health::Degraded);
  EXPECT_EQ(R.activeIndex(), 1u);
  EXPECT_EQ(R.failovers(), 1u);
  EXPECT_EQ(R.fallbackDraws(), 5u);
  EXPECT_EQ(R.degradedDraws(), 5u);
  // Every draw reprobes the dead primary once, then the backup serves; only
  // the first draw changed the chain position.
  EXPECT_EQ(Primary.calls(), 5u);
  EXPECT_STREQ(R.name(), "resilient[backup]");
}

TEST(ResilientSourceTest, ReprobeReadoptsRecoveredPrimary) {
  ScriptedSource Primary({DrawStatus::Failed}, "primary");
  ScriptedSource Backup({DrawStatus::Ok}, "backup", 1000);
  RandomSource *Chain[] = {&Primary, &Backup};
  ResilientRandomSource R({Chain, 2});

  (void)R.next(); // draw 1: fail over to backup
  (void)R.next(); // draws 2-3: the primary is reprobed and fails again
  (void)R.next();
  EXPECT_EQ(R.activeIndex(), 1u);
  EXPECT_EQ(Primary.calls(), 3u);

  Primary.setScript({DrawStatus::Ok}); // the DRNG comes back
  uint64_t V = R.next();               // draw 4: reprobe from the top
  EXPECT_EQ(V, 1u);                    // served by the recovered primary
  EXPECT_EQ(R.activeIndex(), 0u);
  EXPECT_EQ(R.recoveries(), 1u);
  EXPECT_EQ(R.health(), ResilientRandomSource::Health::Healthy);
}

TEST(ResilientSourceTest, FailClosedPolicyFailsTheDraw) {
  ScriptedSource A({DrawStatus::Failed}, "a");
  ScriptedSource B({DrawStatus::Failed}, "b");
  RandomSource *Chain[] = {&A, &B};
  ResilientRandomSource R({Chain, 2});

  uint64_t Out = 0xdead;
  EXPECT_FALSE(R.tryNext(Out));
  EXPECT_EQ(R.lastDrawStatus(), DrawStatus::Failed);
  EXPECT_EQ(R.health(), ResilientRandomSource::Health::Failed);
  EXPECT_EQ(R.failClosedDraws(), 1u);
  EXPECT_EQ(R.next(), 0u);
  EXPECT_EQ(R.lastDrawStatus(), DrawStatus::Failed);
}

TEST(ResilientSourceTest, FillReportsWorstStatusOfBatch) {
  ScriptedSource A({DrawStatus::Ok, DrawStatus::Degraded, DrawStatus::Ok},
                   "a");
  RandomSource *Chain[] = {&A};
  ResilientRandomSource R({Chain, 1});
  uint64_t Words[3];
  R.fill(Words);
  EXPECT_EQ(R.lastDrawStatus(), DrawStatus::Degraded);

  ScriptedSource B({DrawStatus::Ok, DrawStatus::Failed, DrawStatus::Ok}, "b");
  RandomSource *Chain2[] = {&B};
  ResilientRandomSource R2({Chain2, 1});
  R2.fill(Words);
  EXPECT_EQ(R2.lastDrawStatus(), DrawStatus::Failed)
      << "one failed word must poison the whole refill";
}

TEST(ResilientSourceTest, DelegatesDisclosureSurfaceToActiveSource) {
  DeterministicEntropySource E(11);
  PseudoRandomSource Pseudo(E);
  RandomSource *Chain[] = {&Pseudo};
  ResilientRandomSource R({Chain, 1});
  EXPECT_EQ(R.securityLevel(), SecurityLevel::None);
  EXPECT_EQ(R.disclosableState().size(), Pseudo.disclosableState().size());
  EXPECT_EQ(R.mutableDisclosableState().data(),
            Pseudo.mutableDisclosableState().data());
}

TEST(ResilientSourceTest, RealChainOrderingRdRandThenAesThenFailClosed) {
  // Pin the production fallback order: RDRAND -> AES-CTR -> fail closed.
  // Stage 1: DRNG dead from the first probe, AES healthy -> AES serves.
  {
    FaultPlan Plan;
    Plan.Seed = 21;
    Plan.site(FaultSite::RdRandDeath) = {0.0, 1, 1};
    FaultInjector Inj(Plan);
    FaultScope Scope(Inj);

    DeterministicEntropySource RdE(1), AesE(2);
    RdRandSource Primary(RdE, /*ForceFallback=*/true);
    AesCtrRandomSource Aes(AesE, 10, 1024);
    RandomSource *Chain[] = {&Primary, &Aes};
    ResilientRandomSource R({Chain, 2});

    for (unsigned I = 0; I != 32; ++I) {
      uint64_t Out = 0;
      EXPECT_TRUE(R.tryNext(Out));
    }
    EXPECT_EQ(R.fallbackDraws(), 32u);
    EXPECT_EQ(R.failClosedDraws(), 0u);
    EXPECT_STREQ(R.name(), "resilient[AES-10]");
    EXPECT_EQ(Inj.injectedEvents(FaultSite::RdRandDeath),
              R.fallbackDraws());
  }
  // Stage 2: DRNG dead and AES never keys -> the chain fails closed.
  {
    FaultPlan Plan;
    Plan.Seed = 22;
    Plan.site(FaultSite::RdRandDeath) = {0.0, 1, 1};
    Plan.site(FaultSite::RekeyEntropy) = {1.0, 1, 0};
    FaultInjector Inj(Plan);
    FaultScope Scope(Inj);

    DeterministicEntropySource RdE(1), AesE(2);
    RdRandSource Primary(RdE, /*ForceFallback=*/true);
    AesCtrRandomSource Aes(AesE, 10, 1024); // initial keying fails
    RandomSource *Chain[] = {&Primary, &Aes};
    ResilientRandomSource R({Chain, 2});

    uint64_t Out = 0;
    EXPECT_FALSE(R.tryNext(Out));
    EXPECT_EQ(R.lastDrawStatus(), DrawStatus::Failed);
    EXPECT_EQ(R.failClosedDraws(), 1u);
    EXPECT_GT(Aes.unkeyedDrawFailures(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Fault-plan replay across the four schemes
//===----------------------------------------------------------------------===//

enum class Scheme { Pseudo, Aes1, Aes10, RdRand };

std::unique_ptr<RandomSource> makeScheme(Scheme Which,
                                         EntropySource &Entropy) {
  switch (Which) {
  case Scheme::Pseudo:
    return std::make_unique<PseudoRandomSource>(Entropy);
  case Scheme::Aes1:
    return std::make_unique<AesCtrRandomSource>(Entropy, 1, 16);
  case Scheme::Aes10:
    return std::make_unique<AesCtrRandomSource>(Entropy, 10, 16);
  case Scheme::RdRand:
    return std::make_unique<RdRandSource>(Entropy, /*ForceFallback=*/true);
  }
  return nullptr;
}

FaultPlan stressPlan(uint64_t Seed) {
  FaultPlan Plan;
  Plan.Seed = Seed;
  Plan.site(FaultSite::RdRandStep) = {0.3, 2, 0};
  Plan.site(FaultSite::RdRandDeath) = {0.0, 1, 150};
  Plan.site(FaultSite::EntropyFill) = {0.2, 1, 0};
  Plan.site(FaultSite::AesNiPresence) = {0.1, 1, 0};
  Plan.site(FaultSite::RekeyEntropy) = {0.4, 1, 0};
  return Plan;
}

/// N draws under the plan plus the injector's books afterwards. Batch 1
/// goes through next(); larger batches through the buffered path.
struct SeqResult {
  std::vector<std::pair<uint64_t, int>> Draws;
  std::array<uint64_t, NumFaultSites> Probes{};
  std::array<uint64_t, NumFaultSites> Injected{};
  std::array<uint64_t, NumFaultSites> Events{};
};

SeqResult runSequence(Scheme Which, const FaultPlan &Plan, unsigned N,
                      unsigned Batch = 1) {
  FaultInjector Inj(Plan);
  FaultScope Scope(Inj);
  DeterministicEntropySource Entropy(0xabc);
  std::unique_ptr<RandomSource> Src = makeScheme(Which, Entropy);
  Src->setBatchSize(Batch);
  SeqResult R;
  for (unsigned I = 0; I != N; ++I) {
    uint64_t V = Batch <= 1 ? Src->next() : Src->nextBuffered();
    R.Draws.emplace_back(V, static_cast<int>(Src->lastDrawStatus()));
  }
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    FaultSite Site = static_cast<FaultSite>(S);
    R.Probes[S] = Inj.probeCount(Site);
    R.Injected[S] = Inj.injectedProbes(Site);
    R.Events[S] = Inj.injectedEvents(Site);
  }
  return R;
}

class SchemeReplayTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeReplayTest, SamePlanReplaysBitIdentically) {
  FaultPlan Plan = stressPlan(77);
  SeqResult A = runSequence(GetParam(), Plan, 200);
  SeqResult B = runSequence(GetParam(), Plan, 200);
  ASSERT_EQ(A.Draws.size(), B.Draws.size());
  for (size_t I = 0; I != A.Draws.size(); ++I) {
    EXPECT_EQ(A.Draws[I].first, B.Draws[I].first)
        << "value diverged at draw " << I;
    EXPECT_EQ(A.Draws[I].second, B.Draws[I].second)
        << "status diverged at draw " << I;
  }
  EXPECT_EQ(A.Probes, B.Probes);
  EXPECT_EQ(A.Events, B.Events);
}

TEST_P(SchemeReplayTest, BatchingPreservesFaultProbeConsumption) {
  // Batching may reorder cipher evaluation (the AES fill() drops the
  // serial feedback chain within a group by design — see
  // RandomFillTest.FirstBufferedWordEqualsNext) but it must consume the
  // fault-probe streams exactly as 96 serial draws would: same probes,
  // same injected probes, same events per site. Otherwise a fault plan
  // tuned against the serial path would silently miss the batched one.
  FaultPlan Plan = stressPlan(31);
  SeqResult Serial = runSequence(GetParam(), Plan, 96, 1);
  SeqResult Batched = runSequence(GetParam(), Plan, 96, 16);
  EXPECT_EQ(Serial.Probes, Batched.Probes);
  EXPECT_EQ(Serial.Injected, Batched.Injected);
  EXPECT_EQ(Serial.Events, Batched.Events);

  // Schemes without a fill() override (pseudo, RDRAND) inherit the
  // default serial loop and must also match word for word.
  if (GetParam() == Scheme::Pseudo || GetParam() == Scheme::RdRand) {
    ASSERT_EQ(Batched.Draws.size(), Serial.Draws.size());
    for (size_t I = 0; I != Serial.Draws.size(); ++I)
      EXPECT_EQ(Batched.Draws[I].first, Serial.Draws[I].first)
          << "diverged at draw " << I;
  }
}

TEST(FaultPlanDivergenceTest, AesDrawStreamsDivergeAcrossPlanSeeds) {
  // AES-CTR's draw path probes rekey entropy, the entropy source, and
  // AES-NI presence, so which draws degrade — and through the deferred
  // rekey, the values themselves — depends on the plan seed.
  SeqResult A = runSequence(Scheme::Aes10, stressPlan(77), 64);
  SeqResult B = runSequence(Scheme::Aes10, stressPlan(78), 64);
  EXPECT_NE(A.Draws, B.Draws) << "plans with different seeds must differ";
}

TEST(FaultPlanDivergenceTest, RdRandDegradesAtSeedDependentDraws) {
  // A CF=0 streak at least as long as the retry budget fails the whole
  // primary draw, so with streaks of RetryLimit the *positions* of the
  // degraded emergency draws follow the plan seed.
  FaultPlan P1, P2;
  P1.Seed = 77;
  P1.site(FaultSite::RdRandStep) = {0.2, RdRandSource::RetryLimit, 0};
  P2 = P1;
  P2.Seed = 78;
  SeqResult A = runSequence(Scheme::RdRand, P1, 128);
  SeqResult B = runSequence(Scheme::RdRand, P2, 128);
  EXPECT_NE(A.Draws, B.Draws);
  EXPECT_GT(A.Events[static_cast<unsigned>(FaultSite::RdRandStep)], 0u);
  EXPECT_GT(B.Events[static_cast<unsigned>(FaultSite::RdRandStep)], 0u);
}

TEST(FaultPlanDivergenceTest, PseudoIsFaultTransparentAfterSeeding) {
  // pseudo's only fault surface is the seeding fill; the xorshift stream
  // itself never touches entropy again. Under a plan that spares
  // EntropyFill, two different seeds leave the stream bit-identical —
  // which is exactly why `pseudo` needs no resilience decorator (and why
  // it stays disclosure-unsafe: nothing external ever perturbs it).
  FaultPlan P1;
  P1.Seed = 77;
  P1.site(FaultSite::RdRandStep) = {0.5, 2, 0};
  P1.site(FaultSite::RekeyEntropy) = {0.5, 1, 0};
  FaultPlan P2 = P1;
  P2.Seed = 78;
  SeqResult A = runSequence(Scheme::Pseudo, P1, 64);
  SeqResult B = runSequence(Scheme::Pseudo, P2, 64);
  EXPECT_EQ(A.Draws, B.Draws);
  EXPECT_EQ(A.Probes, B.Probes);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeReplayTest,
                         ::testing::Values(Scheme::Pseudo, Scheme::Aes1,
                                           Scheme::Aes10, Scheme::RdRand),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case Scheme::Pseudo:
                             return "pseudo";
                           case Scheme::Aes1:
                             return "aes1";
                           case Scheme::Aes10:
                             return "aes10";
                           case Scheme::RdRand:
                             return "rdrand";
                           }
                           return "unknown";
                         });

} // namespace
