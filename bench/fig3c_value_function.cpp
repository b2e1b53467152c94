// Figure 3c — value-function adaptability: Baseline(L) vs DGS(25% L) vs
// DGS(25% T).
//
// Paper numbers: on DGS(25%), switching Phi from latency- to
// throughput-optimized moves the median from 20 to 22 min and the p90 from
// 58 to 119 min — i.e. the tail roughly doubles, showing the value function
// has real steering power.  Even the throughput-optimized 25% deployment
// stays below the latency-optimized baseline.
#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== Fig. 3c: Value-function adaptability (24 h) ===\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  const core::SimulationResult base_l =
      core::Session(setup.sats_6ch, setup.baseline, &wx,
                    day_sim(core::ValueKind::kLatency))
          .run_to_end();
  const core::SimulationResult dgs25_l =
      core::Session(setup.sats, setup.dgs25, &wx,
                    day_sim(core::ValueKind::kLatency))
          .run_to_end();
  const core::SimulationResult dgs25_t =
      core::Session(setup.sats, setup.dgs25, &wx,
                    day_sim(core::ValueKind::kThroughput))
          .run_to_end();

  std::printf("\nLatency under different value functions (paper Fig. 3c):\n");
  print_percentiles("Baseline (L)", base_l.latency_minutes, "min");
  print_percentiles("DGS(25%) (L)", dgs25_l.latency_minutes, "min");
  print_percentiles("DGS(25%) (T)", dgs25_t.latency_minutes, "min");

  std::printf("\n");
  print_cdf("latency: Baseline (L)", base_l.latency_minutes, "min");
  print_cdf("latency: DGS(25%) (L)", dgs25_l.latency_minutes, "min");
  print_cdf("latency: DGS(25%) (T)", dgs25_t.latency_minutes, "min");

  std::printf("\n  Phi: latency -> throughput on DGS(25%%):\n");
  std::printf("    median %.0f -> %.0f min (paper: 20 -> 22)\n",
              dgs25_l.latency_minutes.median(),
              dgs25_t.latency_minutes.median());
  std::printf("    p90    %.0f -> %.0f min (paper: 58 -> 119)\n",
              dgs25_l.latency_minutes.percentile(90.0),
              dgs25_t.latency_minutes.percentile(90.0));
  std::printf("    delivered %.1f -> %.1f TB (throughput-optimized moves "
              "at least as much data)\n",
              dgs25_l.total_delivered_bytes / 1e12,
              dgs25_t.total_delivered_bytes / 1e12);
  return 0;
}
