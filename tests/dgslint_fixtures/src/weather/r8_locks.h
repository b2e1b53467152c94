// dgslint fixture: R8 — locks outside the pool and obs.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

struct R8Locked {
  std::mutex mu;                // finding: R8 std::mutex
  std::shared_mutex rw;         // finding: R8 std::shared_mutex
  std::recursive_mutex re;      // finding: R8 std::recursive_mutex
  std::condition_variable cv;   // finding: R8 std::condition_variable

  int read() {
    const std::lock_guard<std::mutex> lock(mu);  // findings: two on a line
    return 0;
  }

  // dgslint: allow(R8) -- fixture: suppressed lock
  std::timed_mutex suppressed;
};
