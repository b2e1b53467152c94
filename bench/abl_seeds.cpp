// E18 — sensitivity: do the headline conclusions survive different random
// worlds?  Re-runs the Fig. 3 comparison across five independent seeds for
// the network, constellation, and weather, and reports mean +- spread of
// the key metrics.  A reproduction whose conclusions flip with the seed
// would be worthless; this bench is the guard.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E18: seed sensitivity of the Fig. 3 conclusions "
              "(12 h runs) ===\n\n");

  util::SampleSet base_med, dgs_med, ratio_lat, ratio_backlog;
  std::printf("  %6s %14s %14s %14s %14s\n", "seed", "base lat med",
              "DGS lat med", "lat ratio", "backlog ratio");
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    groundseg::NetworkOptions opts;
    opts.seed = seed * 1000 + 7;
    auto sats = groundseg::generate_constellation(opts, kEpoch);
    auto stations = groundseg::generate_dgs_stations(opts);
    auto baseline = groundseg::baseline_stations();
    auto sats6 = sats;
    for (auto& s : sats6) s.radio.channels = 6;
    weather::SyntheticWeatherProvider wx(seed, kEpoch, 13.0);

    core::SimulationOptions sim = day_sim();
    sim.duration_hours = 12.0;  // 2x faster; same orderings

    const core::SimulationResult rb =
        core::Session(sats6, baseline, &wx, sim).run_to_end();
    const core::SimulationResult rd =
        core::Session(sats, stations, &wx, sim).run_to_end();

    const double lat_ratio =
        rb.latency_minutes.median() / rd.latency_minutes.median();
    const double backlog_ratio =
        rb.backlog_gb.median() / std::max(1e-9, rd.backlog_gb.median());
    base_med.add(rb.latency_minutes.median());
    dgs_med.add(rd.latency_minutes.median());
    ratio_lat.add(lat_ratio);
    ratio_backlog.add(backlog_ratio);
    std::printf("  %6llu %10.1f min %10.1f min %13.2fx %13.2fx\n",
                static_cast<unsigned long long>(seed),
                rb.latency_minutes.median(), rd.latency_minutes.median(),
                lat_ratio, backlog_ratio);
  }

  std::printf("\n  across seeds: baseline median %.1f-%.1f min, DGS "
              "%.1f-%.1f min\n",
              base_med.min(), base_med.max(), dgs_med.min(), dgs_med.max());
  std::printf("  DGS latency advantage: %.2fx-%.2fx (mean %.2fx); backlog "
              "advantage %.2fx-%.2fx\n",
              ratio_lat.min(), ratio_lat.max(), ratio_lat.mean(),
              ratio_backlog.min(), ratio_backlog.max());
  std::printf("  conclusion holds iff every ratio > 1; the paper's "
              "qualitative claim is seed-robust when this prints no value "
              "at or below 1.\n");
  return 0;
}
