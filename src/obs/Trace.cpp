//===- obs/Trace.cpp - Per-request span tracing ---------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/MetricsRegistry.h"
#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace smokestack;

std::atomic<uint32_t> smokestack::detail::ObsTimingDepth{0};

void smokestack::enableObsTiming() {
  detail::ObsTimingDepth.fetch_add(1, std::memory_order_relaxed);
}

ObsTimingScope::ObsTimingScope() {
  detail::ObsTimingDepth.fetch_add(1, std::memory_order_relaxed);
}

ObsTimingScope::~ObsTimingScope() {
  detail::ObsTimingDepth.fetch_sub(1, std::memory_order_relaxed);
}

const char *smokestack::spanDispositionName(SpanDisposition D) {
  switch (D) {
  case SpanDisposition::Completed:
    return "completed";
  case SpanDisposition::Trapped:
    return "trapped";
  case SpanDisposition::Crashed:
    return "crashed";
  case SpanDisposition::Died:
    return "died";
  case SpanDisposition::Cancelled:
    return "cancelled";
  case SpanDisposition::Poisoned:
    return "poisoned";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t CapacityPow2)
    : Slots(std::bit_ceil(std::max<size_t>(CapacityPow2, 2))),
      Mask(Slots.size() - 1) {}

bool TraceRing::push(const TraceSpan &S) {
  uint64_t T = Tail.load(std::memory_order_relaxed);
  // Acquire pairs with the consumer's Head release: the slot at T is only
  // reused once the consumer has finished copying it out.
  uint64_t H = Head.load(std::memory_order_acquire);
  if (T - H >= Slots.size()) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Slots[T & Mask] = S;
  // Release publishes the slot write to the consumer's Tail acquire.
  Tail.store(T + 1, std::memory_order_release);
  return true;
}

size_t TraceRing::drainInto(std::vector<TraceSpan> &Out) {
  uint64_t H = Head.load(std::memory_order_relaxed);
  uint64_t T = Tail.load(std::memory_order_acquire);
  for (uint64_t P = H; P != T; ++P)
    Out.push_back(Slots[P & Mask]);
  Head.store(T, std::memory_order_release);
  return static_cast<size_t>(T - H);
}

TraceRecorder::TraceRecorder(size_t RingCapacity)
    : RingCapacity(std::max<size_t>(RingCapacity, 2)) {}

TraceRing &TraceRecorder::ringFor(unsigned WorkerId) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Rings.size() <= WorkerId)
    Rings.resize(WorkerId + 1);
  if (!Rings[WorkerId])
    Rings[WorkerId] = std::make_unique<TraceRing>(RingCapacity);
  return *Rings[WorkerId];
}

size_t TraceRecorder::collect() {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Moved = 0;
  size_t Before = Store.size();
  for (auto &Ring : Rings)
    if (Ring)
      Moved += Ring->drainInto(Store);
  for (size_t I = Before, E = Store.size(); I != E; ++I)
    ++PerDisposition[static_cast<unsigned>(Store[I].Disposition)];
  return Moved;
}

std::vector<TraceSpan> TraceRecorder::take() {
  collect();
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<TraceSpan> Out = std::move(Store);
  Store.clear();
  std::sort(Out.begin(), Out.end(),
            [](const TraceSpan &A, const TraceSpan &B) {
              if (A.RequestIndex != B.RequestIndex)
                return A.RequestIndex < B.RequestIndex;
              return A.Attempt < B.Attempt;
            });
  return Out;
}

size_t TraceRecorder::collectedSpans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Store.size();
}

uint64_t TraceRecorder::droppedSpans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Total = 0;
  for (const auto &Ring : Rings)
    if (Ring)
      Total += Ring->dropped();
  return Total;
}

void TraceRecorder::exportMetrics(MetricsRegistry &R) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumSpanDispositions; ++I)
    Total += PerDisposition[I];
  R.addGauge("trace.spans", "Spans collected by the TraceRecorder", Total);
  R.addGauge("trace.spans-dropped",
             "Spans dropped on full rings (0 == lossless)",
             [this] {
               uint64_t D = 0;
               for (const auto &Ring : Rings)
                 if (Ring)
                   D += Ring->dropped();
               return D;
             }());
  for (unsigned I = 0; I != NumSpanDispositions; ++I)
    R.addGauge(formatString("trace.spans.%s", spanDispositionName(
                                                  static_cast<SpanDisposition>(
                                                      I))),
               "Spans with this disposition", PerDisposition[I]);
}
