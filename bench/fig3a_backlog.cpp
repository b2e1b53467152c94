// Figure 3a — data backlog CDF: Baseline vs DGS vs DGS(25%).
//
// Paper numbers (24 h, 259 satellites, 100 GB/day each):
//   baseline: median 8.5 GB (p90 28.9, p99 80.7)
//   DGS:      median 1.9 GB (p90  5.3, p99 16.7)   -> ~5x better
//   DGS(25%): median 3.9 GB (p90 20.1, p99 66.7)
// Also reproduces the §4 headline totals (E4): data downloaded by DGS in a
// day, plus the aggregate assigned link capacity ("could download" volume).
#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf(
      "=== Fig. 3a: Data backlog CDF (24 h, 259 sats, 100 GB/day) ===\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  const core::SimulationResult baseline =
      core::Session(setup.sats_6ch, setup.baseline, &wx, day_sim())
          .run_to_end();
  const core::SimulationResult dgs =
      core::Session(setup.sats, setup.dgs, &wx, day_sim()).run_to_end();
  const core::SimulationResult dgs25 =
      core::Session(setup.sats, setup.dgs25, &wx, day_sim()).run_to_end();

  std::printf("\nEnd-of-day backlog per satellite (paper Fig. 3a):\n");
  print_percentiles("Baseline (5 polar, 6ch)", baseline.backlog_gb, "GB");
  print_percentiles("DGS (173 stations)", dgs.backlog_gb, "GB");
  print_percentiles("DGS(25%) (43 stations)", dgs25.backlog_gb, "GB");

  std::printf("\n");
  print_cdf("backlog: Baseline", baseline.backlog_gb, "GB");
  print_cdf("backlog: DGS", dgs.backlog_gb, "GB");
  print_cdf("backlog: DGS(25%)", dgs25.backlog_gb, "GB");

  std::printf("\n=== E4: daily transfer totals ===\n");
  std::printf("  generated (workload):        %7.1f TB\n",
              dgs.total_generated_bytes / 1e12);
  std::printf("  DGS delivered:               %7.1f TB (%.1f%% of workload)\n",
              dgs.total_delivered_bytes / 1e12,
              100.0 * dgs.delivered_fraction());
  std::printf("  DGS assigned link capacity:  %7.1f TB (paper: >250 TB "
              "including capacity beyond the 100 GB/day workload)\n",
              dgs.assigned_capacity_bytes / 1e12);
  std::printf("  baseline delivered:          %7.1f TB\n",
              baseline.total_delivered_bytes / 1e12);
  std::printf("\n  improvement DGS vs baseline: median %.1fx, p90 %.1fx, "
              "p99 %.1fx (paper: ~5x)\n",
              baseline.backlog_gb.median() / dgs.backlog_gb.median(),
              baseline.backlog_gb.percentile(90.0) /
                  dgs.backlog_gb.percentile(90.0),
              baseline.backlog_gb.percentile(99.0) /
                  dgs.backlog_gb.percentile(99.0));
  return 0;
}
