// dgs_cli — command-line front end for the DGS library.
//
//   dgs_cli gen-network <tle-out> <stations-csv-out> [n_sats] [n_stations]
//   dgs_cli passes <tle-file> <lat_deg> <lon_deg> [hours]
//   dgs_cli budget <elevation_deg> <rain_mm_h> [freq_ghz] [dish_m]
//   dgs_cli simulate <tle-file> <stations-csv> [hours]
//
// The files produced by gen-network round-trip through the standard TLE
// and CSV formats, so real catalogs (Celestrak exports, SatNOGS dumps)
// drop in directly.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <fstream>

#include "examples/cli_common.h"
#include "src/core/dgs.h"
#include "src/core/report.h"
#include "src/groundseg/io.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

using namespace dgs;

util::Epoch now_epoch() {
  // A fixed reference keeps runs reproducible; real deployments would use
  // wall-clock UTC.
  return util::Epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
}

int cmd_gen_network(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dgs_cli gen-network <tle-out> <stations-csv-out> "
                 "[n_sats] [n_stations]\n");
    return 2;
  }
  groundseg::NetworkOptions opts;
  if (argc > 4) {
    opts.num_satellites = examples::number_arg("n_sats", argv[4], 1);
  }
  if (argc > 5) {
    opts.num_stations = examples::number_arg("n_stations", argv[5], 1);
  }
  const auto sats = groundseg::generate_constellation(opts, now_epoch());
  std::vector<orbit::Tle> catalog;
  for (const auto& s : sats) catalog.push_back(s.tle);
  groundseg::save_tle_file(argv[2], catalog);
  groundseg::save_station_file(argv[3],
                               groundseg::generate_dgs_stations(opts));
  std::printf("wrote %zu TLEs to %s and %d stations to %s\n", catalog.size(),
              argv[2], opts.num_stations, argv[3]);
  return 0;
}

int cmd_passes(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: dgs_cli passes <tle-file> <lat_deg> <lon_deg> "
                 "[hours]\n");
    return 2;
  }
  const auto catalog = groundseg::load_tle_file(argv[2]);
  const orbit::Geodetic site{
      util::deg2rad(examples::number_arg("lat_deg", argv[3], -90.0, 90.0)),
      util::deg2rad(examples::number_arg("lon_deg", argv[4], -180.0, 360.0)),
      0.0};
  const double hours =
      argc > 5 ? examples::number_arg("hours", argv[5], 0.0) : 24.0;
  const util::Epoch start = now_epoch();

  std::printf("%-14s %-21s %9s %8s\n", "satellite", "AOS", "duration",
              "max el");
  int total = 0;
  for (const auto& tle : catalog) {
    const orbit::Sgp4 prop(tle);
    for (const auto& p : orbit::predict_passes(
             prop, site, start, start.plus_seconds(hours * 3600.0))) {
      std::printf("%-14s %-21s %6.1f min %5.1f deg\n",
                  tle.name.empty() ? std::to_string(tle.satnum).c_str()
                                   : tle.name.c_str(),
                  p.aos.to_string().c_str(), p.duration_seconds() / 60.0,
                  util::rad2deg(p.max_elevation_rad));
      ++total;
    }
  }
  std::printf("%d passes in %.1f h\n", total, hours);
  return 0;
}

int cmd_budget(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dgs_cli budget <elevation_deg> <rain_mm_h> "
                 "[freq_ghz] [dish_m]\n");
    return 2;
  }
  const double el_deg =
      examples::number_arg("elevation_deg", argv[2], 0.0, 90.0);
  if (el_deg == 0.0) {
    std::fprintf(stderr, "error: elevation must be in (0, 90]\n");
    return 2;
  }
  link::RadioSpec radio;
  if (argc > 4) {
    radio.frequency_hz =
        examples::number_arg("freq_ghz", argv[4], 1.0, 1000.0) * 1e9;
  }
  link::ReceiveSystem rx;
  if (argc > 5) {
    rx.dish_diameter_m = examples::number_arg("dish_m", argv[5], 0.01, 100.0);
  }

  const double el = util::deg2rad(el_deg);
  const double re = 6371.0, h = 550.0;
  link::PathConditions path;
  path.range_km =
      std::sqrt((re + h) * (re + h) - re * re * std::cos(el) * std::cos(el)) -
      re * std::sin(el);
  path.elevation_rad = el;
  path.site_latitude_rad = util::deg2rad(45.0);
  path.rain_rate_mm_h =
      examples::number_arg("rain_mm_h", argv[3], 0.0, 1000.0);
  path.cloud_liquid_kg_m2 = path.rain_rate_mm_h > 0.0 ? 1.0 : 0.2;

  const link::LinkBudget b = link::evaluate_link(radio, rx, path);
  std::printf("550 km orbit, elevation %.1f deg -> range %.0f km\n", el_deg,
              path.range_km);
  std::printf("FSPL %.1f dB | rain %.2f dB | cloud %.2f dB | gas %.2f dB\n",
              b.fspl_db, b.rain_db, b.cloud_db, b.gas_db);
  std::printf("G/T %.1f dB/K | C/N0 %.1f dBHz | Es/N0 %.2f dB\n",
              b.g_over_t_db, b.cn0_dbhz, b.esn0_db);
  if (b.closes()) {
    std::printf("MODCOD %s -> %.1f Mbps\n", b.modcod->name.data(),
                b.data_rate_bps / 1e6);
  } else {
    std::printf("link does not close\n");
  }
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dgs_cli simulate <tle-file> <stations-csv> "
                 "[hours] [--json <file>] [--csv <file>]\n"
                 "       [--metrics-out <file>] [--trace-out <file>] "
                 "[--events-out <file>]\n"
                 "       [--stations-subset <file>]\n"
                 "       [--fault-profile <%s>] [--fault-seed <n>]\n",
                 faults::profile_names());
    return 2;
  }
  const auto catalog = groundseg::load_tle_file(argv[2]);
  const auto stations = groundseg::load_station_file(argv[3]);
  if (catalog.empty() || stations.empty()) {
    std::fprintf(stderr, "error: empty catalog or station list\n");
    return 2;
  }
  std::vector<groundseg::SatelliteConfig> sats;
  for (const auto& tle : catalog) {
    groundseg::SatelliteConfig sc;
    sc.id = static_cast<int>(sats.size());
    sc.name = tle.name;
    sc.tle = tle;
    sats.push_back(std::move(sc));
  }

  core::SimulationOptions opts;
  opts.start = now_epoch();
  examples::CommonFlags flags;
  for (int i = 4; i < argc; ++i) {
    if (examples::parse_common_flag(argc, argv, &i, &flags)) continue;
    if (!examples::parse_hours(argv[i], &opts.duration_hours)) {
      std::fprintf(stderr,
                   "error: SimulationOptions.duration_hours: bad [hours] "
                   "\"%s\" (want a finite number >= 0)\n",
                   argv[i]);
      return 2;
    }
  }
  opts.collect_timeseries = !flags.csv_out.empty();
  const int effective_stations = examples::apply_common_flags(
      flags, static_cast<int>(stations.size()), &opts);

  // One documented validation entry point: every option constraint is
  // checked here, with the offending field named in the error.
  std::vector<int> station_ids;
  station_ids.reserve(stations.size());
  for (const auto& gs : stations) station_ids.push_back(gs.id);
  if (const auto err = opts.validate(effective_stations, station_ids)) {
    std::fprintf(stderr, "error: SimulationOptions.%s: %s\n",
                 err->field.c_str(), err->message.c_str());
    return 2;
  }

  // Observability sinks (DESIGN.md §10): Prometheus text exposition,
  // Chrome-trace JSON, and the JSONL event log.
  obs::Registry registry;
  if (!flags.metrics_out.empty()) opts.metrics = &registry;
  std::ofstream events_out;
  obs::EventLog event_log;
  if (!flags.events_out.empty()) {
    events_out.open(flags.events_out);
    event_log = obs::EventLog(&events_out);
    opts.events = &event_log;
  }
  if (!flags.trace_out.empty()) obs::set_trace_enabled(true);

  weather::SyntheticWeatherProvider wx(42, opts.start,
                                       opts.duration_hours + 1.0);
  const core::SimulationResult r =
      core::Session(sats, stations, &wx, opts).run_to_end();

  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    registry.write_prometheus(out);
    std::printf("wrote %zu metric series to %s\n", registry.series_count(),
                flags.metrics_out.c_str());
  }
  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    obs::write_chrome_trace(out);
    std::printf("wrote %zu trace spans to %s\n", obs::trace_span_count(),
                flags.trace_out.c_str());
  }
  if (!flags.events_out.empty()) {
    events_out.close();
    std::printf("wrote event log to %s\n", flags.events_out.c_str());
  }
  if (!flags.json_out.empty()) {
    std::ofstream out(flags.json_out);
    core::write_summary_json(out, r);
    std::printf("wrote summary to %s\n", flags.json_out.c_str());
  }
  if (!flags.csv_out.empty()) {
    std::ofstream out(flags.csv_out);
    core::write_timeseries_csv(out, r);
    std::printf("wrote timeseries to %s\n", flags.csv_out.c_str());
  }

  if (!flags.stations_subset.empty()) {
    std::printf("station subset: %zu of %zu stations (%s)\n",
                opts.station_subset.size(), stations.size(),
                flags.stations_subset.c_str());
  }
  std::printf("%zu satellites x %d stations, %.1f h\n", sats.size(),
              effective_stations, opts.duration_hours);
  std::printf("delivered %.2f TB of %.2f TB generated (%.1f%%)\n",
              r.total_delivered_bytes / 1e12, r.total_generated_bytes / 1e12,
              100.0 * r.delivered_fraction());
  // A run that delivers nothing has no latency (or ack delay) to rank.
  if (!r.latency_minutes.empty()) {
    std::printf("latency: %s\n",
                util::summary_row(r.latency_minutes, "min").c_str());
  }
  if (!r.backlog_gb.empty()) {
    std::printf("backlog: %s\n",
                util::summary_row(r.backlog_gb, "GB").c_str());
  }
  if (!r.ack_delay_minutes.empty()) {
    std::printf("ack delay: %s\n",
                util::summary_row(r.ack_delay_minutes, "min").c_str());
  }
  if (!opts.faults.empty()) {
    std::printf("faults (%s, seed %llu): %.2f GB lost to outages, "
                "%lld ack retries, %lld replans, %lld plan-upload "
                "failures\n",
                flags.fault_profile.c_str(),
                static_cast<unsigned long long>(flags.fault_seed),
                r.outage_lost_bytes / 1e9,
                static_cast<long long>(r.ack_retries),
                static_cast<long long>(r.replans),
                static_cast<long long>(r.plan_upload_failures));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dgs_cli <gen-network|passes|budget|simulate> ...\n");
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "gen-network") == 0) {
      return cmd_gen_network(argc, argv);
    }
    if (std::strcmp(argv[1], "passes") == 0) return cmd_passes(argc, argv);
    if (std::strcmp(argv[1], "budget") == 0) return cmd_budget(argc, argv);
    if (std::strcmp(argv[1], "simulate") == 0) {
      return cmd_simulate(argc, argv);
    }
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
