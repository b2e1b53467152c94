// E16 — future work made real: per-instant stable matching vs time-expanded
// look-ahead pass-block planning (paper §3.1: "We do not optimize for links
// across time ... we leave this to future work").
//
// The look-ahead planner allocates whole passes, which (a) removes
// mid-pass handoffs (real stations need slew + re-lock time that the
// per-instant matcher ignores) and (b) lets rarely-served satellites claim
// a future pass before better-connected ones consume it.  Sweep the
// planning horizon and compare.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E16: per-instant matching vs look-ahead planning "
              "(24 h, DGS 173) ===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  std::printf("  %-26s %11s %11s %11s %12s %9s\n", "scheduler", "lat med",
              "lat p90", "backlog", "delivered", "failed");
  {
    const core::SimulationResult r =
        core::Session(setup.sats, setup.dgs, &wx, day_sim()).run_to_end();
    std::printf("  %-26s %7.1f min %7.1f min %8.2f GB %9.1f TB %9lld\n",
                "per-instant (paper)", r.latency_minutes.median(),
                r.latency_minutes.percentile(90.0), r.backlog_gb.median(),
                r.total_delivered_bytes / 1e12,
                static_cast<long long>(r.failed_assignments));
  }
  for (double horizon_h : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    core::SimulationOptions opts = day_sim();
    opts.lookahead_hours = horizon_h;
    const core::SimulationResult r =
        core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end();
    char label[64];
    std::snprintf(label, sizeof(label), "look-ahead %.2f h", horizon_h);
    std::printf("  %-26s %7.1f min %7.1f min %8.2f GB %9.1f TB %9lld\n",
                label, r.latency_minutes.median(),
                r.latency_minutes.percentile(90.0), r.backlog_gb.median(),
                r.total_delivered_bytes / 1e12,
                static_cast<long long>(r.failed_assignments));
  }
  std::printf("\n  reading: short horizons track the per-instant scheduler; "
              "long horizons trade responsiveness (the plan ignores data "
              "captured mid-window and forecast error grows with lead) for "
              "pass-level continuity.  The paper's per-instant choice is a "
              "reasonable default; whole-pass planning matters once slew/"
              "re-lock costs are modelled.\n");
  return 0;
}
