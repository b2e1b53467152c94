// Constellation-scale ablation (EXPERIMENTS.md E25): per-step scheduling
// cost at 1k/5k/10k satellites, brute-force all-pairs sweep vs the
// spatial visibility index, and one stable-matching scheduling instant.
//
// Timings come from google-benchmark (no raw clocks, dgslint R1).  With
// `--summary-out=FILE` the binary additionally writes a deterministic
// artifact — edge/matching counts and CRC32 digests, no timings — that
// the CI scale lane byte-compares across `--threads 1` and `--threads 4`
// to pin thread-count invariance at scale.  `--sats=N` restricts the run
// to one constellation size.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/data_queue.h"
#include "src/core/matching.h"
#include "src/core/scheduler.h"
#include "src/core/visibility.h"
#include "src/groundseg/network_gen.h"
#include "src/util/crc32.h"
#include "src/util/thread_pool.h"

namespace {

using dgs::core::ContactEdge;
using dgs::core::OnboardQueue;
using dgs::core::Scheduler;
using dgs::core::SchedulerConfig;
using dgs::core::VisibilityEngine;

int g_threads = 1;

const dgs::util::Epoch kEpoch(dgs::util::DateTime{2020, 11, 4, 0, 0, 0.0});

struct World {
  std::vector<dgs::groundseg::SatelliteConfig> sats;
  std::vector<dgs::groundseg::GroundStation> stations;
  std::unique_ptr<dgs::util::ThreadPool> pool;
  std::unique_ptr<VisibilityEngine> brute;
  std::unique_ptr<VisibilityEngine> indexed;
  std::unique_ptr<Scheduler> sched;  ///< Stable matching, indexed engine.
  std::vector<OnboardQueue> queues;
};

World& world(int num_sats) {
  static std::map<int, std::unique_ptr<World>> cache;
  std::unique_ptr<World>& slot = cache[num_sats];
  if (slot) return *slot;
  slot = std::make_unique<World>();
  World& w = *slot;

  dgs::groundseg::NetworkOptions opts;
  opts.num_satellites = num_sats;
  w.sats = dgs::groundseg::generate_constellation(opts, kEpoch);
  w.stations = dgs::groundseg::generate_dgs_stations(opts);

  dgs::util::ParallelConfig pc;
  pc.num_threads = g_threads;
  w.pool = std::make_unique<dgs::util::ThreadPool>(pc);

  w.brute = std::make_unique<VisibilityEngine>(w.sats, w.stations, nullptr);
  w.brute->set_spatial_index(false);
  w.brute->set_thread_pool(w.pool.get());
  w.indexed = std::make_unique<VisibilityEngine>(w.sats, w.stations, nullptr);
  w.indexed->set_thread_pool(w.pool.get());

  w.sched =
      std::make_unique<Scheduler>(w.indexed.get(), SchedulerConfig{});

  // Deterministic backlog so edge values are positive (no RNG: a fixed
  // arithmetic pattern over the fleet).
  w.queues.resize(w.sats.size());
  for (std::size_t i = 0; i < w.queues.size(); ++i) {
    const double bytes = 1e8 * static_cast<double>(i % 97 + 1);
    const double age_s = 600.0 * static_cast<double>(i % 13);
    w.queues[i].generate(bytes, kEpoch.plus_seconds(-age_s));
  }
  return w;
}

void BM_ScaleStepBrute(benchmark::State& state) {
  World& w = world(static_cast<int>(state.range(0)));
  const dgs::util::Epoch t = kEpoch.plus_seconds(600.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.brute->contacts(t));
  }
}

void BM_ScaleStepIndexed(benchmark::State& state) {
  World& w = world(static_cast<int>(state.range(0)));
  const dgs::util::Epoch t = kEpoch.plus_seconds(600.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.indexed->contacts(t));
  }
}

void BM_ScaleScheduleCold(benchmark::State& state) {
  World& w = world(static_cast<int>(state.range(0)));
  std::int64_t step = 0;
  for (auto _ : state) {
    const dgs::util::Epoch t =
        kEpoch.plus_seconds(60.0 * static_cast<double>(step++ % 90));
    benchmark::DoNotOptimize(w.sched->schedule_instant(t, w.queues));
  }
}

// --- Deterministic summary artifact ----------------------------------------

void append_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

void append_double(std::vector<std::uint8_t>& buf, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int k = 0; k < 8; ++k) {
    buf.push_back(static_cast<std::uint8_t>(bits >> (8 * k)));
  }
}

std::uint32_t edges_crc(const std::vector<ContactEdge>& edges) {
  std::vector<std::uint8_t> buf;
  buf.reserve(edges.size() * 40);
  for (const ContactEdge& e : edges) {
    append_u32(buf, static_cast<std::uint32_t>(e.sat));
    append_u32(buf, static_cast<std::uint32_t>(e.station));
    append_double(buf, e.elevation_rad);
    append_double(buf, e.range_km);
    append_double(buf, e.predicted_rate_bps);
  }
  return dgs::util::crc32(buf);
}

std::uint32_t matched_crc(const std::vector<ContactEdge>& matched) {
  std::vector<std::uint8_t> buf;
  buf.reserve(matched.size() * 16);
  for (const ContactEdge& e : matched) {
    append_u32(buf, static_cast<std::uint32_t>(e.sat));
    append_u32(buf, static_cast<std::uint32_t>(e.station));
    append_double(buf, e.weight);
  }
  return dgs::util::crc32(buf);
}

/// One point of the scale sweep, computed fresh (independent of however
/// many iterations the benchmarks ran): contact graph at a fixed epoch,
/// cross-validated brute vs indexed, plus the stable matching.  Every
/// field is thread-count independent by the determinism contract.
int write_summary(const std::string& path, const std::vector<int>& sizes) {
  std::FILE* fh = std::fopen(path.c_str(), "w");
  if (fh == nullptr) {
    std::fprintf(stderr, "abl_scale: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(fh, "{\n  \"schema\": \"dgs.scale_summary.v1\",\n"
                   "  \"points\": [\n");
  bool failed = false;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    World& w = world(sizes[i]);
    const dgs::util::Epoch t = kEpoch.plus_seconds(600.0);
    const std::vector<ContactEdge> brute = w.brute->contacts(t);
    const std::vector<ContactEdge> indexed = w.indexed->contacts(t);
    const std::uint32_t brute_crc = edges_crc(brute);
    const std::uint32_t indexed_crc = edges_crc(indexed);
    if (brute.size() != indexed.size() || brute_crc != indexed_crc) {
      std::fprintf(stderr,
                   "abl_scale: spatial index mismatch at %d sats "
                   "(brute %zu edges crc %08x, indexed %zu edges crc %08x)\n",
                   sizes[i], brute.size(), brute_crc, indexed.size(),
                   indexed_crc);
      failed = true;
    }
    const std::vector<ContactEdge> matched =
        w.sched->schedule_instant(t, w.queues);
    std::fprintf(fh,
                 "    {\"sats\": %d, \"stations\": %zu, \"edges\": %zu, "
                 "\"edges_crc32\": \"%08x\", \"matched\": %zu, "
                 "\"matched_crc32\": \"%08x\"}%s\n",
                 sizes[i], w.stations.size(), indexed.size(), indexed_crc,
                 matched.size(), matched_crc(matched),
                 i + 1 < sizes.size() ? "," : "");
  }
  std::fprintf(fh, "  ]\n}\n");
  std::fclose(fh);
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = dgs::bench::consume_threads_flag(&argc, argv);
  const int only_sats = dgs::bench::consume_int_flag(&argc, argv, "--sats", 0);
  const std::string summary_path =
      dgs::bench::consume_string_flag(&argc, argv, "--summary-out");
  g_threads = threads;

  std::vector<int> sizes{1000, 5000, 10000};
  if (only_sats > 0) sizes = {only_sats};
  for (const int n : sizes) {
    benchmark::RegisterBenchmark("BM_ScaleStepBrute", BM_ScaleStepBrute)
        ->Arg(n)->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_ScaleStepIndexed", BM_ScaleStepIndexed)
        ->Arg(n)->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_ScaleScheduleCold", BM_ScaleScheduleCold)
        ->Arg(n)->Unit(benchmark::kMillisecond);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!summary_path.empty()) return write_summary(summary_path, sizes);
  return 0;
}
