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
//===----------------------------------------------------------------------===//

#include "runtime/RequestRng.h"

#include "common/PoolRuns.h"
#include "faults/FaultInjector.h"

#include "gtest/gtest.h"

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

} // namespace
