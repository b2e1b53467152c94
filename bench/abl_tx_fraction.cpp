// E10 — ablation: the hybrid design's knob.  How does the fraction of
// transmit-capable stations affect ack delay, on-board storage pressure,
// and plan staleness (which degrades weather forecasts)?
//
// The paper fixes "a very small number" of uplink stations (§1, §3); this
// sweep quantifies how small it can go.  The trend to reproduce: ack delay
// and storage high-water grow as the TX fraction shrinks, while delivery
// volume and latency stay nearly flat — downlink never waits for uplink.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E10: transmit-capable fraction sweep (24 h, 173 "
              "stations) ===\n\n");
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  std::printf("  %6s %8s %12s %12s %14s %11s %9s\n", "tx", "#tx",
              "ack med", "ack p99", "storage p99", "lat med", "delivered");
  for (double tx_fraction : {0.02, 0.05, 0.10, 0.25, 0.50, 1.00}) {
    groundseg::NetworkOptions opts;
    opts.tx_fraction = tx_fraction;
    const auto sats = groundseg::generate_constellation(opts, kEpoch);
    const auto stations = groundseg::generate_dgs_stations(opts);
    int tx_count = 0;
    for (const auto& gs : stations) tx_count += gs.tx_capable ? 1 : 0;

    const core::SimulationResult r =
        core::Session(sats, stations, &wx, day_sim()).run_to_end();

    util::SampleSet storage_gb;
    for (const auto& o : r.per_satellite) {
      storage_gb.add(o.storage_high_water_bytes / 1e9);
    }
    std::printf("  %5.0f%% %8d %8.1f min %8.1f min %11.2f GB %7.1f min "
                "%6.1f TB\n",
                tx_fraction * 100.0, tx_count,
                r.ack_delay_minutes.median(),
                r.ack_delay_minutes.percentile(99.0),
                storage_gb.percentile(99.0), r.latency_minutes.median(),
                r.total_delivered_bytes / 1e12);
  }
  std::printf("\n  expected shape: ack delay and storage high-water rise as "
              "TX stations thin out; delivery and latency stay almost "
              "flat.  This is the evidence behind the paper's hybrid claim "
              "that receive-only nodes are the right default.\n");
  return 0;
}
