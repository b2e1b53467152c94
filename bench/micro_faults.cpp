// Fault-subsystem micro-benchmarks (DESIGN.md §11): what fault injection
// costs on the hot path.  Timeline construction is a once-per-run expense;
// the per-step queries (down-mask fill, stateless ack-relay draws) ride
// inside the simulation loop, so CI's bench-smoke lane pins them along
// with a one-hour paper-scale simulation running the full storm profile.
//
// `--threads=N` selects the simulator's ThreadPool lane count for the
// simulation benches (results are bit-identical at any setting — the tsan
// lane runs this binary threaded to shake out races in the fault paths).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/dgs.h"

namespace {

using namespace dgs;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr int kStations = 173;     // paper-scale ground segment
constexpr std::int64_t kSteps = 24 * 60;  // 24 h at 60 s quanta

int g_threads = 1;  // set by --threads in main()

// Expanding the storm profile (churn on every station + brownouts +
// flaky ack relay) onto the 24 h step grid: the once-per-run cost of
// enabling fault injection.
void BM_FaultTimelineConstructStorm(benchmark::State& state) {
  const faults::FaultPlan plan = faults::make_profile("storm", 7, kStations);
  for (auto _ : state) {
    faults::FaultTimeline timeline(plan, kStations, kSteps, 60.0);
    benchmark::DoNotOptimize(timeline.down_intervals().size());
  }
}
BENCHMARK(BM_FaultTimelineConstructStorm);

// Refreshing the per-step down mask: runs once per simulation step.
void BM_FillStationDownMask(benchmark::State& state) {
  const faults::FaultPlan plan = faults::make_profile("churn", 7, kStations);
  const faults::FaultTimeline timeline(plan, kStations, kSteps, 60.0);
  std::vector<char> mask;
  std::int64_t step = 0;
  for (auto _ : state) {
    timeline.fill_station_down(step % kSteps, &mask);
    benchmark::DoNotOptimize(mask.data());
    ++step;
  }
}
BENCHMARK(BM_FillStationDownMask);

// One stateless ack-relay retry sequence: a handful of SplitMix64 rounds
// per delivered batch.  Must stay cheap — it runs per (batch, station).
void BM_AckRelayOutcomeDraw(benchmark::State& state) {
  const faults::FaultPlan plan =
      faults::make_profile("flaky-net", 7, kStations);
  const faults::FaultTimeline timeline(plan, kStations, kSteps, 60.0);
  std::int64_t step = 0;
  for (auto _ : state) {
    const faults::AckRelayOutcome o = timeline.ack_relay_outcome(
        step % kSteps, static_cast<int>(step % 259),
        static_cast<int>(step % kStations));
    benchmark::DoNotOptimize(o.delay_s);
    ++step;
  }
}
BENCHMARK(BM_AckRelayOutcomeDraw);

struct PaperScale {
  PaperScale()
      : sats(groundseg::generate_constellation(groundseg::NetworkOptions{},
                                               kEpoch)),
        stations(groundseg::generate_dgs_stations(
            groundseg::NetworkOptions{})),
        wx(7, kEpoch, 25.0) {}
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  weather::SyntheticWeatherProvider wx;
};

PaperScale& fixture() {
  static PaperScale ps;
  return ps;
}

core::SimulationOptions hour_sim() {
  core::SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 1.0;
  opts.parallel.num_threads = g_threads;
  opts.parallel.chunk_size = 8;
  return opts;
}

// The fault-free hour, for reference: the delta against the storm bench
// below is the whole-pipeline overhead of fault injection.
void BM_SimulateOneHourNoFaults(benchmark::State& state) {
  PaperScale& ps = fixture();
  const core::SimulationOptions opts = hour_sim();
  for (auto _ : state) {
    core::Session sim(ps.sats, ps.stations, &ps.wx, opts);
    benchmark::DoNotOptimize(sim.run_to_end());
  }
}
BENCHMARK(BM_SimulateOneHourNoFaults)->Unit(benchmark::kMillisecond);

// The same hour under the storm profile: churn everywhere, brownouts,
// lossy ack relay, failing plan uploads.
void BM_SimulateOneHourStormFaults(benchmark::State& state) {
  PaperScale& ps = fixture();
  core::SimulationOptions opts = hour_sim();
  opts.station_backhaul_bps = 50e6;  // brownouts need an edge queue
  opts.faults = faults::make_profile(
      "storm", 7, static_cast<int>(ps.stations.size()));
  for (auto _ : state) {
    core::Session sim(ps.sats, ps.stations, &ps.wx, opts);
    benchmark::DoNotOptimize(sim.run_to_end());
  }
}
BENCHMARK(BM_SimulateOneHourStormFaults)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  g_threads = dgs::bench::consume_threads_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
