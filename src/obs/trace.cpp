#include "src/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace dgs::obs {

namespace internal {

std::atomic<bool> g_trace_enabled{false};

std::int64_t trace_now_ns() {
  // dgslint: allow(R1) -- trace timestamps are profiling-only, not replayed
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

namespace {

struct TraceEvent {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

/// One per recording thread; owned by the global collector so spans
/// survive their thread (pool workers die with their Session).
struct TraceBuffer {
  std::mutex mutex;  ///< Uncontended except against an exporter.
  std::vector<TraceEvent> events;
  int tid = 0;  ///< Stable export id, assigned at registration.
};

struct Collector {
  std::mutex mutex;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
};

Collector& collector() {
  static Collector c;
  return c;
}

TraceBuffer& this_thread_buffer() {
  thread_local TraceBuffer* buf = [] {
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.buffers.push_back(std::make_unique<TraceBuffer>());
    c.buffers.back()->tid = static_cast<int>(c.buffers.size());
    return c.buffers.back().get();
  }();
  return *buf;
}

}  // namespace

void trace_record(const char* name, std::int64_t start_ns,
                  std::int64_t dur_ns) {
  TraceBuffer& buf = this_thread_buffer();
  const std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, start_ns, dur_ns});
}

}  // namespace internal

void set_trace_enabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& out) {
  internal::Collector& c = internal::collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[192];
  bool first = true;
  for (const auto& tb : c.buffers) {
    const std::lock_guard<std::mutex> buf_lock(tb->mutex);
    for (const internal::TraceEvent& e : tb->events) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"cat\": \"dgs\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                    first ? "" : ",", e.name, tb->tid,
                    static_cast<double>(e.start_ns) / 1e3,
                    static_cast<double>(e.dur_ns) / 1e3);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
}

void clear_trace() {
  internal::Collector& c = internal::collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& tb : c.buffers) {
    const std::lock_guard<std::mutex> buf_lock(tb->mutex);
    tb->events.clear();
  }
}

std::size_t trace_span_count() {
  internal::Collector& c = internal::collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  std::size_t n = 0;
  for (const auto& tb : c.buffers) {
    const std::lock_guard<std::mutex> buf_lock(tb->mutex);
    n += tb->events.size();
  }
  return n;
}

}  // namespace dgs::obs
