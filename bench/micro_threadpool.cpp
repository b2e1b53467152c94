// ThreadPool micro-benchmarks: fork-join overhead and parallel_for speedup
// on the real SGP4 propagation workload.  The Arg is the lane count, so
// `--benchmark_filter=Sgp4` sweeps the speedup curve (≥2.5x at 8 lanes on
// a multi-core runner).
#include <benchmark/benchmark.h>

#include <atomic>

#include "src/groundseg/network_gen.h"
#include "src/orbit/frames.h"
#include "src/orbit/sgp4.h"
#include "src/util/thread_pool.h"

namespace {

using namespace dgs;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

util::ParallelConfig lanes(benchmark::State& state, int chunk = 8) {
  return util::ParallelConfig{
      .num_threads = static_cast<int>(state.range(0)), .chunk_size = chunk};
}

/// Pure fork-join cost: near-empty body over a small range.
void BM_ForkJoinOverhead(benchmark::State& state) {
  util::ThreadPool pool(lanes(state, 1));
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(pool.concurrency(),
                      [&](std::int64_t b, std::int64_t e) {
                        sink.fetch_add(e - b, std::memory_order_relaxed);
                      });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ForkJoinOverhead)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The dominant simulator kernel: propagate the paper constellation one
/// epoch (SGP4 + TEME->ECEF per satellite).
void BM_ParallelSgp4Constellation(benchmark::State& state) {
  static const auto sats =
      groundseg::generate_constellation(groundseg::NetworkOptions{}, kEpoch);
  static const std::vector<orbit::Sgp4> props = [] {
    std::vector<orbit::Sgp4> ps;
    ps.reserve(sats.size());
    for (const auto& sc : sats) ps.emplace_back(sc.tle);
    return ps;
  }();
  util::ThreadPool pool(lanes(state));
  std::vector<util::Vec3> ecef(props.size());
  double minute = 0.0;
  for (auto _ : state) {
    minute += 1.0;
    const util::Epoch t = kEpoch.plus_seconds(minute * 60.0);
    pool.parallel_for(static_cast<std::int64_t>(props.size()),
                      [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i) {
                          const auto s = static_cast<std::size_t>(i);
                          ecef[s] = orbit::teme_to_ecef(
                              props[s].propagate_to(t).position_km, t);
                        }
                      });
    benchmark::DoNotOptimize(ecef.data());
  }
}
BENCHMARK(BM_ParallelSgp4Constellation)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
