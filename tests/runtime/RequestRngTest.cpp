//===- tests/runtime/RequestRngTest.cpp - RequestRng reset contract -------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A worker pool repairs a crashed worker's randomness by calling
// RequestRng::reset() instead of constructing a new RequestRng. That is
// sound only if a reset object is indistinguishable from a fresh one: after
// reseed(Root, Index), both must serve the same draw stream, report the
// same DrawStatus for every draw and keep the same books — even when the
// reset object had served earlier requests under an active fault plan
// (degraded and failed draws, failed rekeys, buffered words). The VM half
// of the repair is pinned by tests/vm/SnapshotTest.cpp.
//
// The healthy draw skips its fault probes while no injector is installed
// (rng/RdRand.h). The equivalence tests below pin that shortcut: with no
// injector and with an installed injector that never fails, the chain
// serves the same values, statuses and books; under a failing plan the
// probes each site sees and the draws at which the chain fails over and
// recovers equal a table recorded before the shortcut existed.
//
//===----------------------------------------------------------------------===//

#include "runtime/RequestRng.h"

#include "common/PoolRuns.h"
#include "faults/FaultInjector.h"

#include "gtest/gtest.h"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <vector>

using namespace smokestack;

namespace {

constexpr uint64_t Root = 7;
constexpr unsigned DrawsPerRequest = 64;

/// DRNG step failures and rekey-entropy failures often enough that every
/// request degrades some draws and some requests fail closed.
FaultPlan chaosPlan(uint64_t Index) {
  FaultPlan Plan;
  Plan.Seed = 0x5EED0000 + Index;
  Plan.site(FaultSite::RdRandStep) = {0.3, RdRandSource::RetryLimit, 0};
  Plan.site(FaultSite::RekeyEntropy) = {0.4, 1, 0};
  return Plan;
}

struct Stream {
  std::vector<uint64_t> Values; ///< 0 for a failed draw.
  std::vector<DrawStatus> Statuses;
  RequestRng::Books Books;
};

/// Serves request \p Index on \p R: reseeds it under the request's fault
/// plan and draws DrawsPerRequest values the way smokestack.rand does.
Stream serve(RequestRng &R, uint64_t Index) {
  FaultInjector Injector(chaosPlan(Index));
  FaultScope Scope(Injector);
  R.reseed(Root, Index);
  Stream S;
  for (unsigned I = 0; I != DrawsPerRequest; ++I) {
    uint64_t V = R.source().nextBuffered();
    DrawStatus St = R.source().lastDrawStatus();
    S.Values.push_back(St == DrawStatus::Failed ? 0 : V);
    S.Statuses.push_back(St);
  }
  S.Books = R.books();
  return S;
}

/// For several request indices: a RequestRng that served other requests
/// under faults, then reset(), must replay request Index exactly like a
/// fresh RequestRng. Returns how many draws of the compared streams were
/// not DrawStatus::Ok, so callers can reject a vacuous fault plan.
unsigned expectResetEqualsFresh(RequestRng::Config Cfg) {
  unsigned Unhealthy = 0;
  for (uint64_t Index : {0ull, 1ull, 5ull, 42ull, 9999ull}) {
    SCOPED_TRACE(Index);
    RequestRng Used(Cfg);
    for (uint64_t Earlier = 100; Earlier != 104; ++Earlier)
      serve(Used, Earlier);
    Used.reset();
    Stream Reset = serve(Used, Index);

    RequestRng Fresh(Cfg);
    Stream New = serve(Fresh, Index);

    EXPECT_EQ(Reset.Values, New.Values);
    EXPECT_EQ(Reset.Statuses, New.Statuses);
    expectSameRngBooks(Reset.Books, New.Books, "reset vs fresh");
    for (DrawStatus St : New.Statuses)
      Unhealthy += St != DrawStatus::Ok;
  }
  return Unhealthy;
}

TEST(RequestRngTest, ResetEqualsFreshUnderFaults) {
  RequestRng::Config Cfg;
  Cfg.RekeyInterval = 16; // rekeys, and their injected failures, mid-stream
  EXPECT_GT(expectResetEqualsFresh(Cfg), 0u)
      << "the fault plan never degraded a draw: vacuous test";
}

TEST(RequestRngTest, ResetEqualsFreshWithBufferedDraws) {
  // Buffered words of the old chain must not leak into the reset one.
  RequestRng::Config Cfg;
  Cfg.RekeyInterval = 16;
  Cfg.BatchSize = 8;
  EXPECT_GT(expectResetEqualsFresh(Cfg), 0u)
      << "the fault plan never degraded a draw: vacuous test";
}

TEST(RequestRngTest, BooksAccumulateWithoutReset) {
  // The control for the tests above: without reset() the earlier
  // requests' books are still there, so the comparison can tell.
  RequestRng::Config Cfg;
  RequestRng Used(Cfg), Fresh(Cfg);
  Stream Earlier = serve(Used, 100);
  Stream Kept = serve(Used, 1);
  Stream New = serve(Fresh, 1);
  EXPECT_EQ(Kept.Values, New.Values) << "reseed alone fixes the stream";
  ASSERT_GT(Earlier.Books.DrawsServed, 0u);
  EXPECT_EQ(Kept.Books.DrawsServed,
            Earlier.Books.DrawsServed + New.Books.DrawsServed);
}

/// One long request's draws, with the probes the fault sites saw and the
/// draws (1-based) at which the chain failed over or recovered.
struct DrawTrace : Stream {
  std::vector<uint64_t> FailoverAt, RecoveryAt;
  uint64_t Probes[3] = {}; ///< RdRandStep, RdRandDeath, EntropyFill.
};

constexpr unsigned LongRequestDraws = 10000;
constexpr FaultSite TracedSites[] = {FaultSite::RdRandStep,
                                     FaultSite::RdRandDeath,
                                     FaultSite::EntropyFill};

/// Reseeds a fresh RequestRng for (\p RootSeed, \p Index) under \p Plan
/// (none when empty) and draws LongRequestDraws values the way
/// smokestack.rand does.
DrawTrace drawLong(uint64_t RootSeed, uint64_t Index,
                   const std::optional<FaultPlan> &Plan) {
  std::optional<FaultInjector> Injector;
  std::optional<FaultScope> Scope;
  if (Plan) {
    Injector.emplace(*Plan);
    Scope.emplace(*Injector);
  }
  RequestRng R(RequestRng::Config{});
  R.reseed(RootSeed, Index);
  DrawTrace T;
  ResilientRandomSource &Chain = R.source();
  for (uint64_t Draw = 1; Draw <= LongRequestDraws; ++Draw) {
    uint64_t Failovers = Chain.failovers(), Recoveries = Chain.recoveries();
    uint64_t V = Chain.nextBuffered();
    DrawStatus St = Chain.lastDrawStatus();
    T.Values.push_back(St == DrawStatus::Failed ? 0 : V);
    T.Statuses.push_back(St);
    if (Chain.failovers() != Failovers)
      T.FailoverAt.push_back(Draw);
    if (Chain.recoveries() != Recoveries)
      T.RecoveryAt.push_back(Draw);
  }
  T.Books = R.books();
  if (Injector)
    for (unsigned S = 0; S != 3; ++S)
      T.Probes[S] = Injector->probeCount(TracedSites[S]);
  return T;
}

/// FNV-1a over 64-bit words.
uint64_t fnv(const std::vector<uint64_t> &Words) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint64_t W : Words)
    for (unsigned B = 0; B != 8; ++B) {
      H ^= (W >> (8 * B)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  return H;
}

constexpr std::pair<uint64_t, uint64_t> LongRequests[] = {
    {7, 0}, {7, 12345}, {0xC0FFEE, 3}};

TEST(RequestRngTest, HealthyDrawsEqualWithAndWithoutInjector) {
  // A plan with every site at probability 0 installs an injector whose
  // probes all pass: the draws take the probed path and must serve what
  // the unprobed path serves.
  FaultPlan NeverFails;
  NeverFails.Seed = 0x0FF;
  for (auto [RootSeed, Index] : LongRequests) {
    SCOPED_TRACE(testing::Message() << RootSeed << "/" << Index);
    DrawTrace Bare = drawLong(RootSeed, Index, std::nullopt);
    DrawTrace Probed = drawLong(RootSeed, Index, NeverFails);
    EXPECT_EQ(Bare.Values, Probed.Values);
    EXPECT_EQ(Bare.Statuses, Probed.Statuses);
    expectSameRngBooks(Bare.Books, Probed.Books, "bare vs probed");
    EXPECT_EQ(Bare.Books.DrawsServed, LongRequestDraws);
    EXPECT_EQ(Bare.Books.DegradedDraws, 0u);
    // One probe per draw at each DRNG site; the entropy site also saw
    // the AES keying reads of the reseed.
    EXPECT_EQ(Probed.Probes[0], LongRequestDraws);
    EXPECT_EQ(Probed.Probes[1], LongRequestDraws);
    EXPECT_GT(Probed.Probes[2], LongRequestDraws);
  }
}

/// DRNG step streaks long enough to exhaust the retry loop, a DRNG that
/// dies for good at its 7000th death probe, and entropy stalls.
FaultPlan failingPlan(uint64_t Index) {
  FaultPlan Plan;
  Plan.Seed = 0xFA11 + Index;
  Plan.site(FaultSite::RdRandStep) = {0.004, RdRandSource::RetryLimit, 0};
  Plan.site(FaultSite::RdRandDeath) = {0.0, 1, 7000};
  Plan.site(FaultSite::EntropyFill) = {0.01, 1, 0};
  return Plan;
}

/// One row of the failing-plan table: per-site probe counts, the number
/// of failovers and recoveries, and FNV-1a digests of the draws at which
/// they happened and of the served values. Interval is the reprobe
/// interval, 1 for every row: every draw starts from the top of the chain.
struct FailingRow {
  uint64_t RootSeed, Index, Interval;
  uint64_t StepProbes, DeathProbes, FillProbes;
  uint64_t Failovers, Recoveries;
  uint64_t TransitionDigest, ValueDigest;
};

// Recorded from the probed path before the healthy-draw shortcut existed.
// clang-format off
constexpr FailingRow FailingTable[] = {
    {0x7, 0, 1, 7493, 10000, 7038, 30, 29, 0xfe21dfa44632ce55ull, 0x8df257b9d7bbc4b1ull},
    {0x7, 12345, 1, 7519, 10000, 7032, 32, 31, 0xddebe5f82a6fe36cull, 0x1ff5971282242716ull},
    {0xc0ffee, 3, 1, 7525, 10000, 7038, 32, 31, 0x90d1752dbda37cb2ull, 0x37ce28b806b27c30ull},
};
// clang-format on

TEST(RequestRngTest, FailingPlanProbesAndTransitionsMatchRecordedTable) {
  unsigned Row = 0, Unhealthy = 0;
  for (auto [RootSeed, Index] : LongRequests) {
    DrawTrace T = drawLong(RootSeed, Index, failingPlan(Index));
    std::vector<uint64_t> Transitions = T.FailoverAt;
    Transitions.push_back(~0ull); // separator
    Transitions.insert(Transitions.end(), T.RecoveryAt.begin(),
                       T.RecoveryAt.end());
    std::vector<uint64_t> Served = T.Values;
    for (DrawStatus St : T.Statuses) {
      Served.push_back(static_cast<uint64_t>(St));
      Unhealthy += St != DrawStatus::Ok;
    }
    FailingRow Got{RootSeed,
                   Index,
                   1,
                   T.Probes[0],
                   T.Probes[1],
                   T.Probes[2],
                   T.FailoverAt.size(),
                   T.RecoveryAt.size(),
                   fnv(Transitions),
                   fnv(Served)};
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "    {%#" PRIx64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %#" PRIx64 "ull, %#" PRIx64 "ull},",
                  Got.RootSeed, Got.Index, Got.Interval, Got.StepProbes,
                  Got.DeathProbes, Got.FillProbes, Got.Failovers,
                  Got.Recoveries, Got.TransitionDigest, Got.ValueDigest);
    ASSERT_LT(Row, std::size(FailingTable)) << "unrecorded row:\n" << Line;
    const FailingRow &Want = FailingTable[Row++];
    EXPECT_TRUE(Want.RootSeed == Got.RootSeed && Want.Index == Got.Index &&
                Want.Interval == Got.Interval &&
                Want.StepProbes == Got.StepProbes &&
                Want.DeathProbes == Got.DeathProbes &&
                Want.FillProbes == Got.FillProbes &&
                Want.Failovers == Got.Failovers &&
                Want.Recoveries == Got.Recoveries &&
                Want.TransitionDigest == Got.TransitionDigest &&
                Want.ValueDigest == Got.ValueDigest)
        << "row " << Row - 1 << " is now\n" << Line;
    EXPECT_GT(T.FailoverAt.size(), 0u) << "the plan never failed over";
  }
  EXPECT_EQ(Row, std::size(FailingTable));
  EXPECT_GT(Unhealthy, 0u);
}

} // namespace
