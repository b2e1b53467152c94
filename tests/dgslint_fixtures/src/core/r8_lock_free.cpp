// dgslint fixture: R8 — lock-free sharing stays silent: per-lane slots,
// atomics, and a std::mutex named only in comments or strings.
#include <atomic>
#include <vector>

struct R8LockFree {
  std::vector<int> per_lane;  // each lane writes its own slot
  std::atomic<int> count{0};
  const char* note = "std::mutex";
  int my_mutex_count = 0;
};
