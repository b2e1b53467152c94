// E13 — robustness: station failures (paper §1: "the centralized link is a
// single point of failure"; the distributed design's gains should degrade
// gracefully).
//
// Injects outages into both systems and measures the damage:
//   baseline: lose 1 of 5 polar stations for 12 h (20% of the ground
//             segment — one storm, fibre cut, or maintenance window)
//   DGS:      lose the same *fraction* (35 of 173 stations) for 12 h
//   DGS:      lose an entire region (all European stations) for 12 h
#include <cstdio>

#include "bench/common.h"
#include "src/util/angles.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;
  using util::rad2deg;

  std::printf("=== E13: robustness to station outages (24 h) ===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  auto report = [](const char* label, const core::SimulationResult& r) {
    std::printf("  %-34s lat med %6.1f  p90 %6.1f  p99 %6.1f min | "
                "backlog med %5.2f p99 %6.2f GB\n",
                label, r.latency_minutes.median(),
                r.latency_minutes.percentile(90.0),
                r.latency_minutes.percentile(99.0), r.backlog_gb.median(),
                r.backlog_gb.percentile(99.0));
  };

  // Healthy references.
  report("baseline, healthy",
         core::Session(setup.sats_6ch, setup.baseline, &wx, day_sim())
             .run_to_end());
  report("DGS, healthy",
         core::Session(setup.sats, setup.dgs, &wx, day_sim()).run_to_end());

  // Baseline loses Svalbard (its busiest polar site) from hour 6 to 18.
  {
    core::SimulationOptions opts = day_sim();
    opts.faults.outages.push_back(dgs::faults::OutageWindow{0, 6.0, 18.0});
    report("baseline, -1 station (20%) 12 h",
           core::Session(setup.sats_6ch, setup.baseline, &wx, opts)
               .run_to_end());
  }

  // DGS loses the same fraction: every 5th station, hours 6-18.
  {
    core::SimulationOptions opts = day_sim();
    for (std::size_t g = 0; g < setup.dgs.size(); g += 5) {
      opts.faults.outages.push_back(
          dgs::faults::OutageWindow{static_cast<int>(g), 6.0, 18.0});
    }
    report("DGS, -20% stations 12 h",
           core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end());
  }

  // DGS loses all of Europe (a correlated regional failure: power grid,
  // weather system, regulatory shutdown), hours 6-18.
  {
    core::SimulationOptions opts = day_sim();
    int killed = 0;
    for (std::size_t g = 0; g < setup.dgs.size(); ++g) {
      const double lat = rad2deg(setup.dgs[g].location.latitude_rad);
      const double lon = rad2deg(setup.dgs[g].location.longitude_rad);
      if (lat > 36.0 && lat < 69.0 && lon > -10.0 && lon < 40.0) {
        opts.faults.outages.push_back(
            dgs::faults::OutageWindow{static_cast<int>(g), 6.0, 18.0});
        ++killed;
      }
    }
    std::printf("  (European regional outage kills %d stations)\n", killed);
    report("DGS, -Europe 12 h",
           core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end());
  }

  std::printf("\n  expected shape: the baseline's tail latency blows up "
              "when one of five stations dies; DGS absorbs the same "
              "fractional loss, and even a full regional outage, with a "
              "modest degradation.\n");
  return 0;
}
