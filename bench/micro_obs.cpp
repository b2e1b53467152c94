// Overhead of the observability primitives (DESIGN.md §10): what one
// trace span and one counter increment cost with instrumentation enabled,
// runtime-disabled, and compiled out.  The CI bench-smoke lane pins the
// disabled numbers — leaving observability off must stay (near) free, and
// the enabled span cost bounds what full tracing adds to a hot loop.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

using namespace dgs;

// What DGS_TRACE_SPAN expands to under -DDGS_OBS_NO_TRACING: nothing.
// The empty loop is the floor the other two span benches compare against.
void BM_SpanCompiledOut(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    static_cast<void>(0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanCompiledOut);

// Compiled in but runtime-disabled: one relaxed load + branch.
void BM_SpanRuntimeDisabled(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    DGS_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanRuntimeDisabled);

// Fully enabled: two clock reads plus a buffered record.  The buffer is
// flushed outside the timed region so the steady-state cost is measured,
// not an unbounded allocation.
void BM_SpanEnabled(benchmark::State& state) {
  obs::set_trace_enabled(true);
  std::int64_t since_flush = 0;
  for (auto _ : state) {
    DGS_TRACE_SPAN("bench.enabled");
    benchmark::ClobberMemory();
    if (++since_flush == (1 << 16)) {
      state.PauseTiming();
      obs::clear_trace();
      since_flush = 0;
      state.ResumeTiming();
    }
  }
  obs::set_trace_enabled(false);
  obs::clear_trace();
}
BENCHMARK(BM_SpanEnabled);

// One counter increment: a plain double add (metrics are written on the
// driver thread only, DESIGN.md §10).
void BM_CounterInc(benchmark::State& state) {
  static obs::Registry registry;
  static obs::Counter* counter =
      registry.counter("dgs_bench_counter_total", "micro_obs scratch counter");
  for (auto _ : state) {
    counter->inc();
    benchmark::ClobberMemory();  // keep each add's store in the loop
  }
}
BENCHMARK(BM_CounterInc);

// One histogram observation: bucket search + cell and sum adds.
void BM_HistogramObserve(benchmark::State& state) {
  static obs::Registry registry;
  static obs::Histogram* hist = registry.histogram(
      "dgs_bench_histogram", "micro_obs scratch histogram",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0});
  double v = 0.0;
  for (auto _ : state) {
    v += 1.0;
    if (v > 128.0) v = 0.0;
    hist->observe(v);
  }
}
BENCHMARK(BM_HistogramObserve);

}  // namespace

BENCHMARK_MAIN();
