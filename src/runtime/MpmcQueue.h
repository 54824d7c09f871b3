//===- runtime/MpmcQueue.h - Bounded MPMC request queue --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded multi-producer/multi-consumer queue: the hand-off point
/// between request submitters and the interpreter workers. Bounded on
/// purpose — a full queue back-pressures producers instead of letting an
/// overload grow the heap without limit — and closable, so shutdown is a
/// race-free "no more work" signal rather than a sentinel item per worker.
///
/// Mutex + two condition variables rather than a lock-free ring: requests
/// carry heap-owning payloads (input records), each request then executes
/// for thousands of VM steps, so the queue is nowhere near the contention
/// point of the pool. Correct and simple wins here; the hot path the pool
/// optimizes is the interpreter loop, which never touches the queue.
///
/// The supervision layer (DESIGN.md §10) adds three ideas on top of the
/// plain bounded queue:
///
///  - tryPush(): a non-blocking admission path for load shedding. Its
///    result distinguishes "full" (shed by policy) from "closed" (the pool
///    is shutting down or dead), so the admission controller can keep
///    exact books.
///  - a priority retry lane (pushPriority): requests requeued after a
///    worker crash bypass the capacity bound and survive close(). The
///    bound exists to back-pressure *external* producers; retries are
///    obligations the pool already accepted, and dropping them on a full
///    or closing queue would break the accounting identity
///    Submitted == Completed + Shed + Poisoned.
///  - in-flight tracking (pop()/taskDone()): a popped item counts as in
///    flight until its consumer declares it terminal. pop() returns
///    nullopt — letting a worker exit — only when the queue is closed,
///    BOTH lanes are drained, and nothing is in flight. Without this, the
///    last worker could exit on "closed and empty" while a crashed
///    sibling's request was still waiting to be requeued, stranding it.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RUNTIME_MPMCQUEUE_H
#define SMOKESTACK_RUNTIME_MPMCQUEUE_H

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace smokestack {

/// Outcome of a non-blocking push.
enum class QueuePush {
  Ok,     ///< The item was enqueued.
  Full,   ///< The bounded lane is at capacity (candidate for shedding).
  Closed, ///< The queue is closed; no external admission succeeds.
};

template <typename T> class MpmcQueue {
public:
  explicit MpmcQueue(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// Blocks while the queue is full. Returns false (dropping \p Item) when
  /// the queue has been closed — including a close() that happens while
  /// the producer is already blocked, so a producer can never be stranded
  /// on a dead pool.
  bool push(T Item) {
    std::unique_lock<std::mutex> Lock(Mutex);
    NotFull.wait(Lock,
                 [this] { return Closed || Items.size() < Capacity; });
    if (Closed)
      return false;
    Items.push_back(std::move(Item));
    Lock.unlock();
    NotEmpty.notify_one();
    return true;
  }

  /// Non-blocking admission: enqueues \p Item if the bounded lane has
  /// room, otherwise reports Full (shed candidate) or Closed. Never drops
  /// silently — on a non-Ok result the caller still owns the item.
  QueuePush tryPush(T &Item) {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Closed)
      return QueuePush::Closed;
    if (Items.size() >= Capacity)
      return QueuePush::Full;
    Items.push_back(std::move(Item));
    Lock.unlock();
    NotEmpty.notify_one();
    return QueuePush::Ok;
  }

  /// Requeues an already-admitted item on the priority lane: consumed
  /// before the bounded lane, exempt from the capacity bound, and accepted
  /// even after close() — a retry is an obligation, not a new admission.
  void pushPriority(T Item) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Priority.push_back(std::move(Item));
    }
    NotEmpty.notify_one();
  }

  /// Blocks while there is nothing to serve. Returns nullopt — the
  /// consumer's signal to exit — only when the queue is closed, both lanes
  /// are drained, AND no popped item is still in flight (an in-flight item
  /// may yet be requeued on the priority lane). A successful pop marks the
  /// item in flight; the consumer must balance it with exactly one
  /// taskDone() once the item reaches a terminal state.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> Lock(Mutex);
    NotEmpty.wait(Lock, [this] {
      return !Priority.empty() || !Items.empty() ||
             (Closed && InFlight == 0);
    });
    return popLocked(Lock);
  }

  /// Non-blocking pop over both lanes (priority first). Also marks the
  /// item in flight; used to drain the backlog of a dead pool.
  std::optional<T> tryPop() {
    std::unique_lock<std::mutex> Lock(Mutex);
    return popLocked(Lock);
  }

  /// Declares one previously popped item terminal (served, shed, or
  /// poisoned — anything that will not be requeued).
  void taskDone() {
    bool NowIdle;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      assert(InFlight > 0 && "taskDone without a matching pop");
      --InFlight;
      NowIdle = InFlight == 0 && Items.empty() && Priority.empty();
    }
    if (NowIdle) {
      // Wake consumers blocked on "closed but something in flight" and any
      // waitIdleFor() caller.
      NotEmpty.notify_all();
      Idle.notify_all();
    }
  }

  /// Waits up to \p Millis until both lanes are drained and nothing is in
  /// flight. Returns false when the queue still holds queued or in-flight
  /// work — the graceful-drain-timeout hook (the caller then escalates to
  /// cancellation instead of hanging).
  bool waitIdleFor(unsigned Millis) {
    std::unique_lock<std::mutex> Lock(Mutex);
    return Idle.wait_for(Lock, std::chrono::milliseconds(Millis), [this] {
      return Items.empty() && Priority.empty() && InFlight == 0;
    });
  }

  /// No further external pushes succeed; pops drain the remaining items
  /// (and any retries still arriving on the priority lane), then return
  /// nullopt. Blocked producers wake and fail. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Closed = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
    Idle.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Closed;
  }

  /// Items queued across both lanes (diagnostic; racy by nature).
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Items.size() + Priority.size();
  }

  size_t capacity() const { return Capacity; }

private:
  std::optional<T> popLocked(std::unique_lock<std::mutex> &Lock) {
    std::deque<T> *Lane =
        !Priority.empty() ? &Priority : (!Items.empty() ? &Items : nullptr);
    if (!Lane)
      return std::nullopt;
    T Item = std::move(Lane->front());
    bool FromBounded = Lane == &Items;
    Lane->pop_front();
    ++InFlight;
    Lock.unlock();
    if (FromBounded)
      NotFull.notify_one();
    return Item;
  }

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::condition_variable NotFull;
  std::condition_variable NotEmpty;
  std::condition_variable Idle;
  std::deque<T> Items;
  /// Retry lane: unbounded, consumed first, open past close().
  std::deque<T> Priority;
  /// Popped items not yet declared terminal via taskDone().
  size_t InFlight = 0;
  bool Closed = false;
};

} // namespace smokestack

#endif // SMOKESTACK_RUNTIME_MPMCQUEUE_H
