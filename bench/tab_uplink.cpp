// E15 — hybrid-uplink feasibility table (paper §1/§2: "ground stations
// today support Gbps downlink but only hundreds of Kbps uplink").
//
// Sizes the artifacts the TX-capable stations must push — the downlink
// plan and the collated ack report — against the S-band TT&C channel at
// realistic slant ranges, and reports what fraction of a 7-10 minute pass
// the upload consumes.  The punchline that justifies the hybrid design:
// the whole control plane costs seconds per day of uplink time.
#include <cstdio>

#include "bench/common.h"
#include "src/core/plan.h"
#include "src/link/ttc.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E15: TT&C uplink feasibility (Sec. 1-2 hybrid design) "
              "===\n\n");

  const link::TtcUplinkSpec gs;
  const link::SatCommandReceiver sat;

  std::printf("S-band command link (%.0f W, %.0f m dish at %.2f GHz):\n",
              gs.tx_power_w, gs.dish_diameter_m, gs.frequency_hz / 1e9);
  std::printf("  %10s %12s %12s\n", "range", "C/N0", "rate");
  for (double range : {500.0, 800.0, 1200.0, 1800.0, 2500.0}) {
    std::printf("  %7.0f km %9.1f dBHz %8.0f kbps\n", range,
                link::ttc_uplink_cn0_dbhz(gs, sat, range),
                link::ttc_uplink_rate_bps(gs, sat, range) / 1e3);
  }

  // How big are the artifacts?  Size plans from a real scheduled day.
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);
  const core::SimulationResult r =
      core::Session(setup.sats, setup.dgs, &wx, day_sim()).run_to_end();
  const double slots_per_sat =
      static_cast<double>(r.assignments) /
      static_cast<double>(setup.sats.size());

  std::printf("\nControl-plane artifact sizes (from the scheduled day: "
              "%.0f slots/satellite/day):\n",
              slots_per_sat);
  const std::size_t plan_bytes =
      core::plan_wire_size(static_cast<std::size_t>(slots_per_sat));
  const std::size_t ack_bytes = core::ack_wire_size(
      static_cast<std::size_t>(slots_per_sat));  // <= one range per slot
  std::printf("  24 h downlink plan:   %6zu bytes\n", plan_bytes);
  std::printf("  collated ack report:  %6zu bytes (1 range per slot, "
              "worst case)\n",
              ack_bytes);

  std::printf("\nUpload time vs pass duration (2 s session handshake):\n");
  std::printf("  %10s %10s %14s %22s\n", "range", "rate", "upload",
              "fraction of 8-min pass");
  for (double range : {800.0, 1500.0, 2500.0}) {
    const double rate = link::ttc_uplink_rate_bps(gs, sat, range);
    const double t = core::upload_duration_s(plan_bytes + ack_bytes, rate);
    std::printf("  %7.0f km %6.0f kbps %11.2f s %18.2f%%\n", range,
                rate / 1e3, t, 100.0 * t / (8.0 * 60.0));
  }
  std::printf("\n  conclusion: the whole hybrid control plane fits in "
              "seconds of S-band time — receive-only stations with a thin "
              "TX subset are viable (the paper's central design bet).\n");
  return 0;
}
