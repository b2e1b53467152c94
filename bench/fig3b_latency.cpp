// Figure 3b — capture-to-ground latency CDF: Baseline vs DGS vs DGS(25%).
//
// Paper numbers:
//   baseline: median 58 min (p90 293, p99 438)
//   DGS:      median 12 min (p90  44, p99  88)   -> 4-5x lower
//   DGS(25%): median 20 min (p90  58, p99  88)
// The headline claim: even with aggregate capacity BELOW the baseline,
// DGS(25%) achieves much lower latency because a satellite encounters many
// more ground stations along its orbit.
#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== Fig. 3b: Latency CDF (24 h, 259 sats, 100 GB/day) ===\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  const core::SimulationResult baseline =
      core::Session(setup.sats_6ch, setup.baseline, &wx, day_sim())
          .run_to_end();
  const core::SimulationResult dgs =
      core::Session(setup.sats, setup.dgs, &wx, day_sim()).run_to_end();
  const core::SimulationResult dgs25 =
      core::Session(setup.sats, setup.dgs25, &wx, day_sim()).run_to_end();

  std::printf("\nCapture-to-reception latency per chunk (paper Fig. 3b):\n");
  print_percentiles("Baseline (5 polar, 6ch)", baseline.latency_minutes,
                    "min");
  print_percentiles("DGS (173 stations)", dgs.latency_minutes, "min");
  print_percentiles("DGS(25%) (43 stations)", dgs25.latency_minutes, "min");

  std::printf("\n");
  print_cdf("latency: Baseline", baseline.latency_minutes, "min");
  print_cdf("latency: DGS", dgs.latency_minutes, "min");
  print_cdf("latency: DGS(25%)", dgs25.latency_minutes, "min");

  std::printf("\n  improvement DGS vs baseline: median %.1fx, p90 %.1fx "
              "(paper: ~4-5x)\n",
              baseline.latency_minutes.median() / dgs.latency_minutes.median(),
              baseline.latency_minutes.percentile(90.0) /
                  dgs.latency_minutes.percentile(90.0));
  std::printf("  mean latency: baseline %.0f min vs DGS %.0f min "
              "(paper: 58 -> 12)\n",
              baseline.latency_minutes.mean(), dgs.latency_minutes.mean());
  return 0;
}
