// dgslint fixture: R8/R9 — obs files other than trace.cpp get no
// exemption: metrics are driver-thread state.
#include <mutex>

struct ShardedCounter {
  std::mutex mu;  // finding: R8 std::mutex
  double cells[32] = {};
};

int shard_slot() {
  thread_local int slot = 0;  // finding: R9
  return slot;
}
