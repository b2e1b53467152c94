// A day in the life of a DGS deployment.
//
// Runs the whole pipeline at a moderate scale (80 satellites, 100 ground
// stations, 12 h) and prints the operator-facing summary: delivery,
// latency, backlog, ack behaviour, per-region utilization.  The full
// paper-scale experiments live in bench/.
//
// Usage: ./build/examples/constellation_day [num_sats] [num_stations]
#include <cstdio>
#include <map>

#include "examples/cli_common.h"
#include "src/core/dgs.h"

int main(int argc, char** argv) {
  using namespace dgs;

  const int num_sats =
      argc > 1 ? examples::number_arg("num_sats", argv[1], 1) : 80;
  const int num_stations =
      argc > 2 ? examples::number_arg("num_stations", argv[2], 1) : 100;

  const util::Epoch epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  groundseg::NetworkOptions net;
  net.num_satellites = num_sats;
  net.num_stations = num_stations;
  const auto sats = groundseg::generate_constellation(net, epoch);
  const auto stations = groundseg::generate_dgs_stations(net);
  weather::SyntheticWeatherProvider wx(2020, epoch, 13.0);

  std::printf("DGS day simulation: %d satellites, %d stations "
              "(%d transmit-capable)\n",
              num_sats, num_stations,
              static_cast<int>(std::count_if(
                  stations.begin(), stations.end(),
                  [](const auto& g) { return g.tx_capable; })));

  core::SimulationOptions opts;
  opts.start = epoch;
  opts.duration_hours = 12.0;
  opts.step_seconds = 60.0;
  core::Session sim(sats, stations, &wx, opts);
  const core::SimulationResult r = sim.run_to_end();

  std::printf("\n--- delivery ---\n");
  std::printf("generated %.2f TB, delivered %.2f TB (%.1f%%)\n",
              r.total_generated_bytes / 1e12, r.total_delivered_bytes / 1e12,
              100.0 * r.delivered_fraction());
  std::printf("scheduled slots: %lld (%lld lost to mis-predicted weather)\n",
              static_cast<long long>(r.assignments),
              static_cast<long long>(r.failed_assignments));

  std::printf("\n--- latency (capture -> ground) ---\n");
  std::printf("median %.0f min, p90 %.0f min, p99 %.0f min\n",
              r.latency_minutes.median(), r.latency_minutes.percentile(90.0),
              r.latency_minutes.percentile(99.0));

  std::printf("\n--- per-satellite backlog at end of horizon ---\n");
  std::printf("median %.2f GB, p90 %.2f GB, worst %.2f GB\n",
              r.backlog_gb.median(), r.backlog_gb.percentile(90.0),
              r.backlog_gb.max());

  std::printf("\n--- hybrid (ack-free) downlink ---\n");
  if (!r.ack_delay_minutes.empty()) {
    std::printf("ack delay: median %.0f min, p99 %.0f min\n",
                r.ack_delay_minutes.median(),
                r.ack_delay_minutes.percentile(99.0));
  }
  util::SampleSet storage;
  for (const auto& o : r.per_satellite) {
    storage.add(o.storage_high_water_bytes / 1e9);
  }
  std::printf("on-board storage high water: median %.1f GB, p99 %.1f GB\n",
              storage.median(), storage.percentile(99.0));

  std::printf("\n--- busiest satellites (top 5 by backlog) ---\n");
  std::vector<int> order(r.per_satellite.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return r.per_satellite[a].backlog_bytes > r.per_satellite[b].backlog_bytes;
  });
  for (int i = 0; i < 5 && i < static_cast<int>(order.size()); ++i) {
    const auto& o = r.per_satellite[order[i]];
    std::printf("  %-12s incl %5.1f deg  backlog %6.2f GB  delivered "
                "%6.2f GB  tx contacts %d\n",
                sats[order[i]].name.c_str(),
                sats[order[i]].tle.inclination_deg, o.backlog_bytes / 1e9,
                o.delivered_bytes / 1e9, o.tx_contacts);
  }
  std::printf("\nmean station utilization: %.1f%%\n",
              100.0 * r.mean_station_utilization);
  return 0;
}
