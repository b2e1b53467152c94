// Whole-pipeline micro-benchmarks: the per-step cost of each scheduler
// stage at paper scale (259 satellites x 173 stations), and a full
// simulated hour.  These are the numbers that say whether the backend
// scheduler could run in real time (it must plan faster than the
// constellation flies).
//
// `--threads=N` runs the pipeline on an N-lane ThreadPool (1 = serial,
// 0 = hardware concurrency); results are bit-identical at any setting, so
// sweeping the flag measures pure speedup.  CI's bench-smoke lane gates on
// the serial numbers (bench/baseline.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "bench/bench_flags.h"
#include "src/core/dgs.h"
#include "src/core/lookahead.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace {

using namespace dgs;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

int g_threads = 1;  // set by --threads in main()

struct PaperScale {
  PaperScale()
      : sats(groundseg::generate_constellation(groundseg::NetworkOptions{},
                                               kEpoch)),
        stations(groundseg::generate_dgs_stations(
            groundseg::NetworkOptions{})),
        wx(7, kEpoch, 25.0), engine(sats, stations, &wx),
        pool(util::ParallelConfig{.num_threads = g_threads,
                                  .chunk_size = 8}),
        queues(sats.size()) {
    engine.set_thread_pool(&pool);
    for (auto& q : queues) q.generate(20e9, kEpoch.plus_seconds(-3600));
  }
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  weather::SyntheticWeatherProvider wx;
  core::VisibilityEngine engine;
  util::ThreadPool pool;
  std::vector<core::OnboardQueue> queues;
};

PaperScale& fixture() {
  static PaperScale ps;
  return ps;
}

void BM_ContactGraphOneInstant(benchmark::State& state) {
  PaperScale& ps = fixture();
  double minute = 0.0;
  for (auto _ : state) {
    minute += 1.0;
    benchmark::DoNotOptimize(
        ps.engine.contacts(kEpoch.plus_seconds(minute * 60.0)));
  }
}
BENCHMARK(BM_ContactGraphOneInstant);

void BM_ScheduleOneInstant(benchmark::State& state) {
  PaperScale& ps = fixture();
  core::Scheduler scheduler(&ps.engine, core::SchedulerConfig{});
  double minute = 0.0;
  for (auto _ : state) {
    minute += 1.0;
    benchmark::DoNotOptimize(scheduler.schedule_instant(
        kEpoch.plus_seconds(minute * 60.0), ps.queues));
  }
}
BENCHMARK(BM_ScheduleOneInstant);

void BM_PlanThreeHourHorizon(benchmark::State& state) {
  PaperScale& ps = fixture();
  core::LatencyValue phi;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::plan_horizon(ps.engine, ps.queues, phi, kEpoch, 180, 60.0));
  }
}
BENCHMARK(BM_PlanThreeHourHorizon)->Unit(benchmark::kMillisecond);

// A storm session's replans over 120 one-minute steps, one-hour windows
// starting where Session starts them, through one PlanGeometry: overlapping
// windows reuse the geometry of instants an earlier window swept.  The
// table is fresh each iteration, so every iteration does the same work.
void BM_PlanReplanSequence(benchmark::State& state) {
  PaperScale& ps = fixture();
  core::LatencyValue phi;
  const obs::StepClock clock(kEpoch, 60.0);
  constexpr int kOrigins[] = {0,  5,  9,  16, 20, 27, 33, 40, 41, 48,
                              55, 60, 66, 71, 77, 85, 90, 99, 105};
  for (auto _ : state) {
    core::PlanGeometry table(60);
    for (const int origin : kOrigins) {
      benchmark::DoNotOptimize(core::plan_horizon(
          ps.engine, ps.queues, phi, clock.step_start(origin),
          std::min(60, 120 - origin), 60.0, {}, &table));
    }
  }
}
BENCHMARK(BM_PlanReplanSequence)->Unit(benchmark::kMillisecond);

void BM_SimulateOneHourPaperScale(benchmark::State& state) {
  PaperScale& ps = fixture();
  core::SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 1.0;
  opts.parallel.num_threads = g_threads;
  opts.parallel.chunk_size = 8;
  for (auto _ : state) {
    core::Simulator sim(ps.sats, ps.stations, &ps.wx, opts);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulateOneHourPaperScale)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  g_threads = dgs::bench::consume_threads_flag(&argc, argv);
  // `--trace-out=FILE` turns span tracing on for the whole run and dumps
  // the Chrome-trace JSON afterwards (CI uploads it as an artifact).
  const std::string trace_out =
      dgs::bench::consume_trace_out_flag(&argc, argv);
  if (!trace_out.empty()) dgs::obs::set_trace_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    dgs::obs::write_chrome_trace(out);
  }
  benchmark::Shutdown();
  return 0;
}
