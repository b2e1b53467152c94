// E12 — extension: beamforming ground stations (paper §3.3 "Beamforming").
//
// The paper leaves multi-beam stations as future work: a station that can
// split power between k satellites serves more of the contention but pays
// 10*log10(k) dB of gain per beam.  This sweep quantifies that trade-off
// on the full DGS network: at some k the per-beam MODCOD drops enough that
// total volume stops improving, while tail latency keeps improving because
// more satellites get simultaneous service.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E12: beamforming sweep (24 h, DGS 173) ===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  std::printf("  %6s %12s %11s %11s %11s %12s\n", "beams", "gain/beam",
              "lat med", "lat p90", "backlog", "delivered");
  for (int beams : {1, 2, 3, 4, 8}) {
    auto stations = setup.dgs;
    for (auto& gs : stations) gs.beam_count = beams;
    const core::SimulationResult r =
        core::Session(setup.sats, stations, &wx, day_sim()).run_to_end();
    std::printf("  %6d %9.1f dB %7.1f min %7.1f min %8.2f GB %8.1f TB\n",
                beams, -10.0 * std::log10(static_cast<double>(beams)),
                r.latency_minutes.median(),
                r.latency_minutes.percentile(90.0), r.backlog_gb.median(),
                r.total_delivered_bytes / 1e12);
  }

  std::printf("\n  Beamforming on the *baseline* (where contention is "
              "brutal, 259 sats on 5 stations):\n");
  std::printf("  %6s %11s %11s %11s %12s\n", "beams", "lat med", "lat p90",
              "backlog", "delivered");
  for (int beams : {1, 2, 4, 6}) {
    auto stations = setup.baseline;
    for (auto& gs : stations) gs.beam_count = beams;
    const core::SimulationResult r =
        core::Session(setup.sats_6ch, stations, &wx, day_sim()).run_to_end();
    std::printf("  %6d %7.1f min %7.1f min %8.2f GB %8.1f TB\n", beams,
                r.latency_minutes.median(),
                r.latency_minutes.percentile(90.0), r.backlog_gb.median(),
                r.total_delivered_bytes / 1e12);
  }
  std::printf("\n  expected shape: beams buy tail latency under contention; "
              "per-beam SNR loss caps the volume gain.\n");
  return 0;
}
