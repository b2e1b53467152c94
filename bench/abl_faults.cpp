// E23 — fault-injection ablation: how the paper's distributed design
// degrades under the failure regimes its §1 robustness argument invokes
// (consumer stations that fail often but independently, flaky residential
// Internet, congested backhaul) — and what the look-ahead planner's
// replan-on-failure path recovers.
//
// Sweeps the named fault profiles (DESIGN.md §11) over the 24 h
// paper-scale setup, per-instant first, then re-runs the storm under the
// look-ahead planner where mid-window outages force replans.  All runs
// share one fault seed, so every row is reproducible bit-for-bit.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  constexpr std::uint64_t kFaultSeed = 7;

  std::printf("=== E23: fault injection across the taxonomy (24 h) ===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);
  const int num_stations = static_cast<int>(setup.dgs.size());

  auto report = [](const char* label, const core::SimulationResult& r) {
    std::printf("  %-24s lat med %6.1f p99 %7.1f min | deliv %5.1f%% | "
                "lost %6.2f GB | ack retries %6lld | replans %3lld\n",
                label, r.latency_minutes.median(),
                r.latency_minutes.percentile(99.0),
                100.0 * r.delivered_fraction(),
                r.outage_lost_bytes / 1e9,
                static_cast<long long>(r.ack_retries),
                static_cast<long long>(r.replans));
  };

  // Per-instant matching under each profile.  Backhaul is modelled in
  // every run (the brownout rows need an edge queue; the others keep it
  // for comparability).
  for (const char* profile :
       {"none", "churn", "flaky-net", "brownout", "storm"}) {
    core::SimulationOptions opts = day_sim();
    opts.station_backhaul_bps = 50e6;
    opts.faults = faults::make_profile(profile, kFaultSeed, num_stations);
    report(profile,
           core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end());
  }

  // The storm again, under the look-ahead planner: plans commit an hour
  // ahead, so churn invalidates them mid-window and the replan path (not
  // just candidate exclusion) carries the recovery.
  {
    core::SimulationOptions opts = day_sim();
    opts.station_backhaul_bps = 50e6;
    opts.lookahead_hours = 1.0;
    opts.faults = faults::make_profile("storm", kFaultSeed, num_stations);
    report("storm + lookahead",
           core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end());
  }

  std::printf("\n  expected shape: per-instant matching absorbs every "
              "profile almost for free — 173 independent stations are the "
              "paper's robustness claim, and the down-mask keeps data away "
              "from faulted sites, so churn barely moves the delivered "
              "fraction while flaky-net only piles up ack retries.  Under "
              "look-ahead the committed windows do lose bytes when a "
              "station faults mid-window; the replan path bounds the "
              "damage to a rounding error of the ~25 TB day instead of "
              "wasting every remaining window step.\n");
  return 0;
}
