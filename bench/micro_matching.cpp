// E7 — matching micro-benchmarks: Gale-Shapley convergence cost vs graph
// size (the paper quotes O(K^2), K = max(N, M)), compared with the
// Hungarian optimal matcher (O(K^3)) and greedy (O(E log E)).
//
// `--threads=N` applies to BM_ScheduleInstantPaperScale, which runs the
// full contact-graph + weighting + matching pipeline on an N-lane
// ThreadPool; the pure matcher kernels are inherently sequential and
// ignore the flag.
#include <benchmark/benchmark.h>

#include "bench/bench_flags.h"
#include "src/core/dgs.h"
#include "src/core/matching.h"
#include "src/util/rng.h"

namespace {

using dgs::core::Edge;

int g_threads = 1;  // set by --threads in main()

std::vector<Edge> make_graph(int sats, int stations, double density,
                             std::uint64_t seed) {
  dgs::util::Rng rng(seed);
  std::vector<Edge> edges;
  for (int s = 0; s < sats; ++s) {
    for (int g = 0; g < stations; ++g) {
      if (rng.uniform() < density) {
        edges.push_back(Edge{s, g, rng.uniform(0.1, 100.0)});
      }
    }
  }
  return edges;
}

void BM_StableMatching(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto edges = make_graph(k, k, 0.1, 42);
  const std::vector<int> caps(k, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::core::stable_matching(edges, k, caps));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_StableMatching)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_OptimalMatching(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto edges = make_graph(k, k, 0.1, 42);
  const std::vector<int> caps(k, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::core::optimal_matching(edges, k, caps));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_OptimalMatching)->RangeMultiplier(2)->Range(32, 256)->Complexity();

void BM_GreedyMatching(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto edges = make_graph(k, k, 0.1, 42);
  const std::vector<int> caps(k, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::core::greedy_matching(edges, k, caps));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_GreedyMatching)->RangeMultiplier(2)->Range(32, 512)->Complexity();

// The paper-scale instance: 259 satellites x 173 stations, with the edge
// density a real instant produces (each satellite sees a handful of
// stations).
void BM_StableMatchingPaperScale(benchmark::State& state) {
  const auto edges = make_graph(259, 173, 0.04, 7);
  const std::vector<int> caps(173, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::core::stable_matching(edges, 259, caps));
  }
}
BENCHMARK(BM_StableMatchingPaperScale);

void BM_OptimalMatchingPaperScale(benchmark::State& state) {
  const auto edges = make_graph(259, 173, 0.04, 7);
  const std::vector<int> caps(173, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::core::optimal_matching(edges, 259, caps));
  }
}
BENCHMARK(BM_OptimalMatchingPaperScale);

// The matcher in context: one full schedule_instant (SGP4 propagation,
// visibility sweep, link budgets, edge weighting, stable matching) at
// paper scale, on the `--threads` pool.
void BM_ScheduleInstantPaperScale(benchmark::State& state) {
  using namespace dgs;
  const util::Epoch epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  static const auto sats =
      groundseg::generate_constellation(groundseg::NetworkOptions{}, epoch);
  static const auto stations =
      groundseg::generate_dgs_stations(groundseg::NetworkOptions{});
  static weather::SyntheticWeatherProvider wx(7, epoch, 25.0);
  static core::VisibilityEngine engine(sats, stations, &wx);
  static util::ThreadPool pool(
      util::ParallelConfig{.num_threads = g_threads, .chunk_size = 8});
  engine.set_thread_pool(&pool);
  static std::vector<core::OnboardQueue> queues = [&epoch] {
    std::vector<core::OnboardQueue> qs(sats.size());
    for (auto& q : qs) q.generate(20e9, epoch.plus_seconds(-3600));
    return qs;
  }();
  core::Scheduler scheduler(&engine, core::SchedulerConfig{});
  double minute = 0.0;
  for (auto _ : state) {
    minute += 1.0;
    benchmark::DoNotOptimize(scheduler.schedule_instant(
        epoch.plus_seconds(minute * 60.0), queues));
  }
}
BENCHMARK(BM_ScheduleInstantPaperScale);

}  // namespace

int main(int argc, char** argv) {
  g_threads = dgs::bench::consume_threads_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
