// Scoped trace spans with a Chrome-trace (chrome://tracing / Perfetto)
// JSON exporter.
//
//   void Session::step() {
//     DGS_TRACE_SPAN("sim.step");
//     ...
//   }
//
// Two kill switches:
//   * compile-time: configure with -DDGS_OBS_TRACING=OFF and the macro
//     expands to nothing — zero code, zero data;
//   * runtime: tracing defaults to off, and a disabled span costs exactly
//     one relaxed atomic load + branch (no clock read, no allocation).
//
// Span names must be string literals (the collector stores the pointer).
// Recording appends to a per-thread buffer guarded by that buffer's own
// (uncontended) mutex, so concurrent spans from pool workers are safe and
// TSan-clean; buffers outlive their threads, so spans recorded by a
// since-destroyed ThreadPool still export.  Timestamps are wall-clock
// (steady) — traces are a timing artifact and intentionally exempt from the
// determinism contract (DESIGN.md §10).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace dgs::obs {

namespace internal {
extern std::atomic<bool> g_trace_enabled;
/// Monotonic nanoseconds since an arbitrary process-local origin.
std::int64_t trace_now_ns();
/// Appends one complete span to the calling thread's buffer.
void trace_record(const char* name, std::int64_t start_ns,
                  std::int64_t dur_ns);
}  // namespace internal

/// Runtime kill switch (process-wide).  Spans opened while disabled record
/// nothing, even if tracing is re-enabled before they close.
inline bool trace_enabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool enabled);

/// Serializes every recorded span as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form, "X" complete events, microsecond
/// timestamps) — loadable in chrome://tracing and Perfetto.
void write_chrome_trace(std::ostream& out);

/// Discards all recorded spans (buffers are retained for reuse).
void clear_trace();

/// Number of spans currently buffered (tests/telemetry).
std::size_t trace_span_count();

/// RAII span: records [construction, destruction) under `name`.
/// `name` must outlive the tracer (use string literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!trace_enabled()) return;  // the single disabled-path branch
    name_ = name;
    start_ns_ = internal::trace_now_ns();
  }
  ~TraceSpan() {
    if (name_ == nullptr) return;
    internal::trace_record(name_, start_ns_,
                           internal::trace_now_ns() - start_ns_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace dgs::obs

#define DGS_OBS_INTERNAL_CONCAT2(a, b) a##b
#define DGS_OBS_INTERNAL_CONCAT(a, b) DGS_OBS_INTERNAL_CONCAT2(a, b)

#ifndef DGS_OBS_NO_TRACING
#define DGS_TRACE_SPAN(name)                                      \
  const ::dgs::obs::TraceSpan DGS_OBS_INTERNAL_CONCAT(            \
      dgs_trace_span_, __LINE__)(name)
#else
#define DGS_TRACE_SPAN(name) static_cast<void>(0)
#endif
