// E14 — extension: SLA / latency-critical tiers (paper §3.1 "Phi(x,t) can
// be defined by the satellite operators to prioritize data ... to honor
// SLAs"; §3.3 edge compute delivering "latency-sensitive data to the cloud
// faster").
//
// 5% of every satellite's imagery is tagged urgent (disaster monitoring).
// Sweep the urgency multiplier and report the two tiers' latency: the
// urgent tier should approach the per-pass floor while bulk pays a small
// penalty.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E14: priority-tier sweep (24 h, DGS 173, 5%% urgent) "
              "===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  std::printf("  %9s | %25s | %25s\n", "", "urgent tier latency",
              "bulk tier latency");
  std::printf("  %9s | %11s %13s | %11s %13s\n", "priority", "median",
              "p99", "median", "p99");
  for (double priority : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    core::SimulationOptions opts = day_sim();
    opts.urgent_fraction = 0.05;
    opts.urgent_priority = priority;
    const core::SimulationResult r =
        core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end();
    const auto& u = priority > 1.0 ? r.urgent_latency_minutes
                                   : r.latency_minutes;
    std::printf("  %9.0fx | %7.1f min %9.1f min | %7.1f min %9.1f min\n",
                priority, u.median(), u.percentile(99.0),
                r.bulk_latency_minutes.median(),
                r.bulk_latency_minutes.percentile(99.0));
  }
  std::printf("\n  expected shape: raising the multiplier pulls the urgent "
              "tier's tail toward the orbital access floor at a small cost "
              "to bulk latency.\n");
  return 0;
}
