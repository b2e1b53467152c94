// dgslint fixture: R8/R9 — the trace collector's per-thread buffer and
// its lock are whitelisted.
#include <mutex>

struct Buffer {
  std::mutex mu;  // whitelisted path: no finding
  int spans = 0;
};

Buffer* local_buffer() {
  thread_local Buffer buf;  // whitelisted path: no finding
  const std::lock_guard<std::mutex> lock(buf.mu);  // whitelisted: none
  return &buf;
}
