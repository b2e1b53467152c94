// Service-mode micro-benchmarks (DESIGN.md §16): the per-quantum cost of
// Session::step() at paper scale, and the full snapshot -> restore round
// trip through the dgs.checkpoint.v5 artifact.  BM_SessionStep bounds the
// steady-state cost a service pays per scheduling quantum; BM_Checkpoint
// bounds how expensive "checkpoint every N minutes" is.  CI's bench-smoke
// lane gates both against bench/baseline.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>

#include "bench/bench_flags.h"
#include "bench/common.h"
#include "src/core/session.h"

namespace {

using namespace dgs;

int g_threads = 1;  // set by --threads in main()

struct ServiceScale {
  ServiceScale()
      : setup(bench::make_paper_setup()),
        wx(bench::kWeatherSeed, bench::kEpoch, 25.0) {
    opts = bench::day_sim();
    opts.parallel.num_threads = g_threads;
    opts.parallel.chunk_size = 8;
  }
  std::unique_ptr<core::Session> fresh() const {
    return std::make_unique<core::Session>(setup.sats, setup.dgs25, &wx,
                                           opts);
  }
  bench::Setup setup;
  weather::SyntheticWeatherProvider wx;
  core::SimulationOptions opts;
};

ServiceScale& fixture() {
  static ServiceScale ss;
  return ss;
}

void BM_SessionStep(benchmark::State& state) {
  ServiceScale& ss = fixture();
  std::unique_ptr<core::Session> session = ss.fresh();
  for (auto _ : state) {
    if (session->done()) {
      state.PauseTiming();
      session = ss.fresh();
      state.ResumeTiming();
    }
    session->step();
  }
}
BENCHMARK(BM_SessionStep)->Unit(benchmark::kMillisecond);

void BM_Checkpoint(benchmark::State& state) {
  ServiceScale& ss = fixture();
  std::unique_ptr<core::Session> session = ss.fresh();
  session->run_until_hours(1.0);  // A populated mid-run state.
  for (auto _ : state) {
    std::stringstream buf;
    session->snapshot(buf);
    std::unique_ptr<core::Session> restored = core::Session::restore(
        buf, ss.setup.sats, ss.setup.dgs25, &ss.wx, ss.opts);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_Checkpoint)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  g_threads = dgs::bench::consume_threads_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
