//===- tests/runtime/MpmcQueueTest.cpp - queue semantics tests ------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The MPMC queue's contract in isolation: bounded-lane admission
// (push/tryPush), the priority retry lane, close semantics (including
// close-while-full with blocked producers), drain ordering, and the
// in-flight protocol that gates consumer exit. The WorkerPool tests cover
// the same machinery end-to-end; these pin the queue's own edge cases so a
// pool failure can be bisected to layer.
//
//===----------------------------------------------------------------------===//

#include "runtime/MpmcQueue.h"

#include "gtest/gtest.h"

#include <atomic>
#include <thread>
#include <vector>

using namespace smokestack;

namespace {

TEST(MpmcQueueTest, TryPushReportsOkFullClosed) {
  MpmcQueue<int> Q(2);
  int A = 1, B = 2, C = 3;
  EXPECT_EQ(Q.tryPush(A), QueuePush::Ok);
  EXPECT_EQ(Q.tryPush(B), QueuePush::Ok);
  EXPECT_EQ(Q.tryPush(C), QueuePush::Full) << "capacity 2 is exhausted";
  EXPECT_EQ(Q.size(), 2u);

  Q.close();
  EXPECT_EQ(Q.tryPush(C), QueuePush::Closed)
      << "closed dominates full: the caller must book ShedClosed, not retry";
}

TEST(MpmcQueueTest, CapacityZeroClampsToOne) {
  MpmcQueue<int> Q(0);
  EXPECT_EQ(Q.capacity(), 1u);
  int A = 1, B = 2;
  EXPECT_EQ(Q.tryPush(A), QueuePush::Ok);
  EXPECT_EQ(Q.tryPush(B), QueuePush::Full);
}

TEST(MpmcQueueTest, PushAfterCloseFails) {
  MpmcQueue<int> Q(4);
  Q.close();
  EXPECT_FALSE(Q.push(1));
  EXPECT_TRUE(Q.closed());
}

TEST(MpmcQueueTest, DrainAfterCloseIsFifoWithPriorityFirst) {
  MpmcQueue<int> Q(4);
  ASSERT_TRUE(Q.push(1));
  ASSERT_TRUE(Q.push(2));
  // Retries land on the priority lane and survive close().
  Q.close();
  Q.pushPriority(9);
  Q.pushPriority(8);

  // Priority lane first (FIFO within it), then the bounded lane (FIFO).
  std::vector<int> Order;
  while (std::optional<int> V = Q.tryPop()) {
    Order.push_back(*V);
    Q.taskDone();
  }
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], 9);
  EXPECT_EQ(Order[1], 8);
  EXPECT_EQ(Order[2], 1);
  EXPECT_EQ(Order[3], 2);
  EXPECT_EQ(Q.pop(), std::nullopt) << "closed and drained";
}

TEST(MpmcQueueTest, CloseWhileFullWakesEveryBlockedProducer) {
  MpmcQueue<int> Q(1);
  ASSERT_TRUE(Q.push(0)); // fill the bounded lane

  constexpr int NumProducers = 4;
  std::atomic<int> Rejected{0};
  std::vector<std::thread> Producers;
  for (int I = 0; I != NumProducers; ++I)
    Producers.emplace_back([&Q, &Rejected, I] {
      if (!Q.push(100 + I))
        Rejected.fetch_add(1, std::memory_order_relaxed);
    });

  // Give the producers a moment to block on the full queue, then close:
  // all of them must wake and fail rather than stay parked forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  for (std::thread &T : Producers)
    T.join();
  EXPECT_EQ(Rejected.load(), NumProducers);

  // The item admitted before close still drains.
  std::optional<int> V = Q.pop();
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 0);
  Q.taskDone();
}

TEST(MpmcQueueTest, PopBlocksExitOnInFlightItems) {
  MpmcQueue<int> Q(4);
  ASSERT_TRUE(Q.push(42));
  std::optional<int> V = Q.tryPop();
  ASSERT_TRUE(V.has_value());

  // Closed and empty, but the popped item is still in flight: a consumer
  // must NOT get the exit signal — the item may yet be requeued (that is
  // exactly the crashed-worker-retry window).
  Q.close();
  std::atomic<bool> GotRequeue{false};
  std::thread Consumer([&Q, &GotRequeue] {
    std::optional<int> R = Q.pop(); // blocks until requeue or all-done
    GotRequeue.store(R.has_value(), std::memory_order_relaxed);
    if (R)
      Q.taskDone();
    // Second pop: now closed, drained, nothing in flight → exit signal.
    EXPECT_EQ(Q.pop(), std::nullopt);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.pushPriority(*V + 1); // "retry" of the in-flight item
  Q.taskDone();           // original attempt is now terminal
  Consumer.join();
  EXPECT_TRUE(GotRequeue.load()) << "the requeued item must be served";
}

TEST(MpmcQueueTest, WaitIdleWaitsForTaskDone) {
  MpmcQueue<int> Q(4);
  ASSERT_TRUE(Q.push(7));
  std::optional<int> V = Q.tryPop();
  ASSERT_TRUE(V.has_value());
  Q.close();

  std::atomic<bool> Idle{false};
  std::thread Waiter([&Q, &Idle] {
    Idle.store(Q.waitIdleFor(60'000), std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Idle.load()) << "an in-flight item holds waitIdle";
  Q.taskDone();
  Waiter.join();
  EXPECT_TRUE(Idle.load());
}

TEST(MpmcQueueTest, MultiProducerMultiConsumerDeliversEverything) {
  MpmcQueue<int> Q(8);
  constexpr int PerProducer = 200;
  constexpr int NumProducers = 3;
  constexpr int NumConsumers = 3;

  std::vector<std::thread> Threads;
  std::atomic<int> Sum{0}, Count{0};
  for (int C = 0; C != NumConsumers; ++C)
    Threads.emplace_back([&] {
      while (std::optional<int> V = Q.pop()) {
        Sum.fetch_add(*V, std::memory_order_relaxed);
        Count.fetch_add(1, std::memory_order_relaxed);
        Q.taskDone();
      }
    });
  for (int P = 0; P != NumProducers; ++P)
    Threads.emplace_back([&Q, P] {
      for (int I = 0; I != PerProducer; ++I)
        ASSERT_TRUE(Q.push(P * PerProducer + I));
    });
  for (size_t T = NumConsumers; T != Threads.size(); ++T)
    Threads[T].join();
  Q.close();
  for (int C = 0; C != NumConsumers; ++C)
    Threads[C].join();

  constexpr int Total = NumProducers * PerProducer;
  EXPECT_EQ(Count.load(), Total);
  EXPECT_EQ(Sum.load(), Total * (Total - 1) / 2);
}

} // namespace
