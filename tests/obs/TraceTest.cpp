//===- tests/obs/TraceTest.cpp - Span ring and recorder tests ------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/MetricsRegistry.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace smokestack;

namespace {

TraceSpan span(uint64_t Index, SpanDisposition D = SpanDisposition::Completed,
               uint32_t Attempt = 1) {
  TraceSpan S;
  S.RequestIndex = Index;
  S.Attempt = Attempt;
  S.Disposition = D;
  return S;
}

} // namespace

TEST(TraceRingTest, PushDrainPreservesOrder) {
  TraceRing Ring(8);
  EXPECT_EQ(Ring.capacity(), 8u);
  for (uint64_t I = 0; I != 5; ++I)
    EXPECT_TRUE(Ring.push(span(I)));

  std::vector<TraceSpan> Out;
  EXPECT_EQ(Ring.drainInto(Out), 5u);
  ASSERT_EQ(Out.size(), 5u);
  for (uint64_t I = 0; I != 5; ++I)
    EXPECT_EQ(Out[I].RequestIndex, I);
  EXPECT_EQ(Ring.dropped(), 0u);

  // A drained ring is empty again.
  Out.clear();
  EXPECT_EQ(Ring.drainInto(Out), 0u);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(16).capacity(), 16u);
  // Degenerate capacities are clamped so the ring always holds something.
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
}

TEST(TraceRingTest, WraparoundReusesSlots) {
  // Fill-drain cycles push the monotonic positions far past the slot
  // count; the masked indices must keep landing on valid slots with
  // contents intact.
  TraceRing Ring(4);
  std::vector<TraceSpan> Out;
  for (uint64_t Cycle = 0; Cycle != 10; ++Cycle) {
    for (uint64_t I = 0; I != 4; ++I)
      EXPECT_TRUE(Ring.push(span(Cycle * 4 + I)));
    Out.clear();
    EXPECT_EQ(Ring.drainInto(Out), 4u);
    for (uint64_t I = 0; I != 4; ++I)
      EXPECT_EQ(Out[I].RequestIndex, Cycle * 4 + I);
  }
  EXPECT_EQ(Ring.dropped(), 0u);
}

TEST(TraceRingTest, FullRingDropsNewestAndCounts) {
  TraceRing Ring(4);
  for (uint64_t I = 0; I != 4; ++I)
    EXPECT_TRUE(Ring.push(span(I)));
  // The ring is full: pushes drop (never block) and are counted.
  EXPECT_FALSE(Ring.push(span(100)));
  EXPECT_FALSE(Ring.push(span(101)));
  EXPECT_EQ(Ring.dropped(), 2u);

  // The four accepted spans survive untouched.
  std::vector<TraceSpan> Out;
  EXPECT_EQ(Ring.drainInto(Out), 4u);
  for (uint64_t I = 0; I != 4; ++I)
    EXPECT_EQ(Out[I].RequestIndex, I);

  // With space freed, pushes succeed again; the drop count is sticky.
  EXPECT_TRUE(Ring.push(span(200)));
  EXPECT_EQ(Ring.dropped(), 2u);
}

TEST(TraceRingTest, ConcurrentProducerConsumerIsLossless) {
  // The SPSC contract under real concurrency (and under TSan, the
  // acquire/release pairing check): one producer spinning on a small ring,
  // one consumer draining, nothing lost and order preserved. The producer
  // retries full-ring pushes, so every span must come through exactly
  // once, in index order.
  constexpr uint64_t NumSpans = 50000;
  TraceRing Ring(64);
  std::vector<TraceSpan> Got;
  Got.reserve(NumSpans);

  std::thread Consumer([&] {
    while (Got.size() < NumSpans)
      Ring.drainInto(Got);
  });
  for (uint64_t I = 0; I != NumSpans; ++I)
    while (!Ring.push(span(I)))
      std::this_thread::yield();
  Consumer.join();

  ASSERT_EQ(Got.size(), NumSpans);
  for (uint64_t I = 0; I != NumSpans; ++I)
    EXPECT_EQ(Got[I].RequestIndex, I);
}

TEST(TraceRecorderTest, CollectDrainsEveryRingAndTakeSorts) {
  TraceRecorder Rec;
  // Three workers' rings, interleaved across request indices and attempts.
  Rec.ringFor(0).push(span(3, SpanDisposition::Completed));
  Rec.ringFor(1).push(span(1, SpanDisposition::Crashed, /*Attempt=*/1));
  Rec.ringFor(1).push(span(1, SpanDisposition::Completed, /*Attempt=*/2));
  Rec.ringFor(2).push(span(0, SpanDisposition::Poisoned, /*Attempt=*/2));

  EXPECT_EQ(Rec.collect(), 4u);
  EXPECT_EQ(Rec.collectedSpans(), 4u);

  std::vector<TraceSpan> Spans = Rec.take();
  ASSERT_EQ(Spans.size(), 4u);
  // Sorted by (RequestIndex, Attempt).
  EXPECT_EQ(Spans[0].RequestIndex, 0u);
  EXPECT_EQ(Spans[1].RequestIndex, 1u);
  EXPECT_EQ(Spans[1].Attempt, 1u);
  EXPECT_EQ(Spans[2].RequestIndex, 1u);
  EXPECT_EQ(Spans[2].Attempt, 2u);
  EXPECT_EQ(Spans[3].RequestIndex, 3u);

  // take() emptied the store; a later collect() finds nothing new.
  EXPECT_EQ(Rec.collectedSpans(), 0u);
  EXPECT_EQ(Rec.collect(), 0u);
}

TEST(TraceRecorderTest, RelaunchedWorkerKeepsItsRing) {
  // Worker slots are never reused for a different worker, so a rebuilt
  // worker keeps producing into the same ring.
  TraceRecorder Rec;
  TraceRing *First = &Rec.ringFor(2);
  EXPECT_EQ(&Rec.ringFor(2), First);
  EXPECT_NE(&Rec.ringFor(0), First);
}

TEST(TraceRecorderTest, DroppedSpansAggregateAcrossRings) {
  TraceRecorder Rec(/*RingCapacity=*/2);
  for (uint64_t I = 0; I != 5; ++I)
    Rec.ringFor(0).push(span(I));
  for (uint64_t I = 0; I != 3; ++I)
    Rec.ringFor(1).push(span(I));
  EXPECT_EQ(Rec.droppedSpans(), 3u + 1u);
  EXPECT_EQ(Rec.collect(), 2u + 2u);
}

TEST(TraceRecorderTest, ExportMetricsTalliesDispositions) {
  TraceRecorder Rec;
  Rec.ringFor(0).push(span(0, SpanDisposition::Completed));
  Rec.ringFor(0).push(span(1, SpanDisposition::Trapped));
  Rec.ringFor(0).push(span(2, SpanDisposition::Crashed));
  Rec.ringFor(1).push(span(2, SpanDisposition::Poisoned, /*Attempt=*/2));
  Rec.collect();
  // The tallies are cumulative at collect() time: handing the spans out
  // does not zero the gauges.
  std::vector<TraceSpan> Spans = Rec.take();
  ASSERT_EQ(Spans.size(), 4u);

  MetricsRegistry Reg(/*IncludeGlobals=*/false);
  Rec.exportMetrics(Reg);
  std::string Text = Reg.exportText();
  EXPECT_NE(Text.find("smokestack_trace_spans 4\n"), std::string::npos);
  EXPECT_NE(Text.find("smokestack_trace_spans_dropped 0\n"),
            std::string::npos);
  EXPECT_NE(Text.find("smokestack_trace_spans_completed 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("smokestack_trace_spans_trapped 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("smokestack_trace_spans_crashed 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("smokestack_trace_spans_poisoned 1\n"),
            std::string::npos);
}

TEST(TraceTest, DispositionNames) {
  EXPECT_STREQ(spanDispositionName(SpanDisposition::Completed), "completed");
  EXPECT_STREQ(spanDispositionName(SpanDisposition::Trapped), "trapped");
  EXPECT_STREQ(spanDispositionName(SpanDisposition::Crashed), "crashed");
  EXPECT_STREQ(spanDispositionName(SpanDisposition::Died), "died");
  EXPECT_STREQ(spanDispositionName(SpanDisposition::Cancelled), "cancelled");
  EXPECT_STREQ(spanDispositionName(SpanDisposition::Poisoned), "poisoned");
}

TEST(TraceTest, ObsTimingScopeNests) {
  EXPECT_FALSE(obsTimingEnabled());
  {
    ObsTimingScope Outer;
    EXPECT_TRUE(obsTimingEnabled());
    {
      ObsTimingScope Inner;
      EXPECT_TRUE(obsTimingEnabled());
    }
    EXPECT_TRUE(obsTimingEnabled());
  }
  EXPECT_FALSE(obsTimingEnabled());
}
