//===- tests/common/Threads.h - Thread-count probe -------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts this process's threads, for tests that pin how many threads a
/// component starts (a pool's workers, a server's loop thread).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_TESTS_COMMON_THREADS_H
#define SMOKESTACK_TESTS_COMMON_THREADS_H

#include <chrono>
#include <filesystem>
#include <thread>

namespace smokestack {

/// Threads in this process, counted from /proc/self/task.
inline unsigned countThreads() {
  unsigned N = 0;
  for (const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)Task;
    ++N;
  }
  return N;
}

/// countThreads() once the count holds still: a joined thread can linger
/// in /proc/self/task for a moment after pthread_join returns. Waits for
/// two equal counts 10 ms apart, for at most about a second.
inline unsigned settledThreadCount() {
  unsigned Last = countThreads();
  for (int I = 0; I != 100; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    unsigned Now = countThreads();
    if (Now == Last)
      break;
    Last = Now;
  }
  return Last;
}

} // namespace smokestack

#endif // SMOKESTACK_TESTS_COMMON_THREADS_H
