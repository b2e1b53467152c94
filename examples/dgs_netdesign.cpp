// dgs_netdesign — ground-station selection with cost/performance fronts.
//
//   dgs_netdesign [--pool <n>] [--pool-seed <n>] [--sats <n>]
//                 [--hours <h>] [--step <s>] [--k <a,b,c>]
//                 [--budget <cost>] [--refine] [--threads <n>]
//                 [--front-out <file>] [--subset-out <file>]
//                 [--metrics-out <file>]
//
// Selects K stations from a seeded candidate pool (lazy-greedy over the
// precomputed value table, optionally refined by full-simulator local
// search), sweeps the requested Ks into a cost-vs-latency/backlog Pareto
// front (`dgs.netdesign.v1`), and writes the best subset in the
// --stations-subset format every other CLI replays.  Output artifacts are
// byte-identical for any --threads value and across reruns.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "examples/cli_common.h"
#include "src/core/run_artifact.h"
#include "src/groundseg/io.h"
#include "src/netdesign/pareto.h"
#include "src/obs/metrics.h"
#include "src/weather/synthetic.h"

namespace {

using namespace dgs;

constexpr std::uint64_t kWeatherSeed = 42;

util::Epoch start_epoch() {
  // Fixed reference epoch: runs must be reproducible.
  return util::Epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
}

std::vector<int> parse_k_list(const char* arg) {
  std::vector<int> ks;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int k = std::atoi(tok.c_str());
    if (k <= 0) return {};
    ks.push_back(k);
  }
  return ks;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dgs_netdesign [--pool <n>] [--pool-seed <n>] [--sats <n>]\n"
      "                     [--hours <h>] [--step <s>] [--k <a,b,c>]\n"
      "                     [--budget <cost>] [--refine] [--threads <n>]\n"
      "                     [--front-out <file>] [--subset-out <file>]\n"
      "                     [--metrics-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  groundseg::NetworkOptions net;
  net.pool_size = 60;
  net.pool_seed = 42;
  net.num_satellites = 40;
  double hours = 6.0;
  double step_seconds = 60.0;
  std::vector<int> ks = {8, 16, 24};
  double budget = 0.0;
  bool refine = false;
  std::string front_path, subset_path;
  examples::CommonFlags flags;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (examples::parse_common_flag(argc, argv, &i, &flags)) {
      continue;  // --threads / --metrics-out
    } else if (std::strcmp(argv[i], "--pool") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      net.pool_size = std::atoi(v);
    } else if (std::strcmp(argv[i], "--pool-seed") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      net.pool_seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--sats") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      net.num_satellites = std::atoi(v);
    } else if (std::strcmp(argv[i], "--hours") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      hours = std::atof(v);
    } else if (std::strcmp(argv[i], "--step") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      step_seconds = std::atof(v);
    } else if (std::strcmp(argv[i], "--k") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      ks = parse_k_list(v);
    } else if (std::strcmp(argv[i], "--budget") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      budget = std::atof(v);
    } else if (std::strcmp(argv[i], "--refine") == 0) {
      refine = true;
    } else if (std::strcmp(argv[i], "--front-out") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      front_path = v;
    } else if (std::strcmp(argv[i], "--subset-out") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      subset_path = v;
    } else {
      return usage();
    }
  }
  const int threads = flags.threads;
  const std::string& metrics_path = flags.metrics_out;
  if (net.pool_size <= 0 || net.num_satellites <= 0 || hours <= 0.0 ||
      step_seconds <= 0.0 || ks.empty() || threads < 0 || budget < 0.0) {
    return usage();
  }
  if (net.pool_seed > core::kMaxArtifactInteger) {
    // The front records the seed as a JSON number, exact only up to
    // 2^53 - 1; reject a larger one before the sweep rather than after.
    std::fprintf(stderr, "error: --pool-seed must be <= 2^53 - 1 = %llu\n",
                 static_cast<unsigned long long>(core::kMaxArtifactInteger));
    return 2;
  }
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (ks[i] > net.pool_size || (i > 0 && ks[i] <= ks[i - 1])) {
      std::fprintf(stderr,
                   "error: --k must be strictly ascending and <= --pool\n");
      return 2;
    }
  }

  try {
    const util::Epoch start = start_epoch();
    const auto pool = netdesign::make_candidate_pool(net);
    const auto sats = groundseg::generate_constellation(net, start);
    weather::SyntheticWeatherProvider wx(kWeatherSeed, start, hours + 1.0);

    obs::Registry registry;
    obs::Registry* metrics = metrics_path.empty() ? nullptr : &registry;

    netdesign::ValueTableOptions table_opts;
    table_opts.start = start;
    table_opts.duration_hours = hours;
    table_opts.step_seconds = step_seconds;
    table_opts.parallel.num_threads = threads;
    table_opts.metrics = metrics;
    const netdesign::ValueTable table =
        netdesign::build_value_table(sats, pool, &wx, table_opts);

    core::SimulationOptions sim_opts;
    sim_opts.start = start;
    sim_opts.duration_hours = hours;
    sim_opts.step_seconds = step_seconds;
    sim_opts.parallel.num_threads = threads;
    const netdesign::SubsetEvaluator evaluator(sats, pool, &wx, sim_opts);

    netdesign::SweepOptions sweep;
    sweep.ks = ks;
    sweep.budget = budget;
    sweep.refine = refine;
    const std::vector<netdesign::FrontPoint> front =
        netdesign::budget_sweep(table, pool, evaluator, sweep, metrics);
    if (front.empty()) {
      std::fprintf(stderr, "error: budget admits no stations\n");
      return 1;
    }

    netdesign::FrontIdentity identity;
    identity.pool_size = net.pool_size;
    identity.pool_seed = static_cast<long long>(net.pool_seed);
    identity.num_satellites = net.num_satellites;
    identity.network_seed = static_cast<long long>(net.seed);
    identity.weather_seed = static_cast<long long>(kWeatherSeed);
    identity.duration_hours = hours;
    identity.step_seconds = step_seconds;

    std::printf("pool %d sites, %d satellites, %.1f h @ %.0f s%s\n",
                net.pool_size, net.num_satellites, hours, step_seconds,
                refine ? ", local-search refinement" : "");
    std::printf("%6s %10s %12s %14s %14s %11s %5s\n", "K", "cost",
                "objective", "latency p50", "latency p90", "backlog",
                "front");
    const netdesign::FrontPoint* best = nullptr;
    for (const netdesign::FrontPoint& p : front) {
      std::printf("%6zu %10.2f %9.2f GB %10.1f min %10.1f min %8.2f GB %5s\n",
                  p.station_ids.size(), p.cost, p.objective_gb,
                  p.eval.latency_p50_min, p.eval.latency_p90_min,
                  p.eval.backlog_end_gb, p.dominated ? "-" : "*");
      if (!p.dominated &&
          (best == nullptr ||
           netdesign::eval_score(p.eval) < netdesign::eval_score(best->eval))) {
        best = &p;
      }
    }

    if (!front_path.empty()) {
      std::ostringstream doc;
      netdesign::write_netdesign_front(doc, identity, front);
      if (const auto err =
              core::validate_netdesign_front_json(doc.str())) {
        std::fprintf(stderr, "error: front failed validation: %s: %s\n",
                     err->where.c_str(), err->message.c_str());
        return 1;
      }
      std::ofstream out(front_path);
      out << doc.str();
      std::printf("wrote front (%zu points) to %s\n", front.size(),
                  front_path.c_str());
    }
    if (!subset_path.empty() && best != nullptr) {
      groundseg::save_station_subset(subset_path, best->station_ids);
      std::printf("wrote best subset (%zu stations, score %.2f) to %s\n",
                  best->station_ids.size(),
                  netdesign::eval_score(best->eval), subset_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      registry.write_prometheus(out);
      std::printf("wrote %zu metric series to %s\n",
                  registry.series_count(), metrics_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
