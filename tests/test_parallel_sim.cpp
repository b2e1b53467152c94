// Parallel-simulation determinism: a multi-threaded run must produce a
// Report byte-identical to the serial run — same SimulationResult fields,
// same serialized summary JSON, same timeseries CSV.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/profiles.h"
#include "src/groundseg/network_gen.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/weather/synthetic.h"

namespace {

using namespace dgs;

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

core::SimulationResult run_sim(int num_threads, double lookahead_hours,
                               obs::Registry* metrics = nullptr,
                               obs::EventLog* events = nullptr,
                               bool storm_faults = false) {
  groundseg::NetworkOptions net;
  net.num_satellites = 10;
  net.num_stations = 12;
  net.tx_fraction = 0.25;
  net.seed = 99;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  weather::SyntheticWeatherProvider wx(31, kT0, 25.0);

  core::SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 24.0;
  opts.step_seconds = 60.0;
  opts.urgent_fraction = 0.05;
  opts.station_backhaul_bps = 40e6;
  opts.slew_seconds = lookahead_hours > 0.0 ? 0.0 : 5.0;
  opts.lookahead_hours = lookahead_hours;
  opts.collect_timeseries = true;
  opts.parallel.num_threads = num_threads;
  opts.parallel.chunk_size = 4;
  opts.metrics = metrics;
  opts.events = events;
  if (storm_faults) {
    opts.faults =
        faults::make_profile("storm", 7, static_cast<int>(stations.size()));
  }

  core::Session sim(sats, stations, &wx, opts);
  return sim.run_to_end();
}

/// The full machine-readable artifact of a run: summary JSON + timeseries
/// CSV.  Byte equality here is the PR's determinism acceptance criterion.
std::string render_report(const core::SimulationResult& r) {
  std::ostringstream out;
  core::write_summary_json(out, r);
  out << '\n';
  core::write_timeseries_csv(out, r);
  return out.str();
}

void expect_identical(const core::SimulationResult& a,
                      const core::SimulationResult& b) {
  // Exact float equality everywhere: the parallel path runs the same
  // operations in the same order per item, so results match bitwise.
  EXPECT_EQ(a.total_generated_bytes, b.total_generated_bytes);
  EXPECT_EQ(a.total_delivered_bytes, b.total_delivered_bytes);
  EXPECT_EQ(a.total_dropped_bytes, b.total_dropped_bytes);
  EXPECT_EQ(a.assigned_capacity_bytes, b.assigned_capacity_bytes);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.total_matched_value, b.total_matched_value);
  EXPECT_EQ(a.failed_assignments, b.failed_assignments);
  EXPECT_EQ(a.wasted_transmission_bytes, b.wasted_transmission_bytes);
  EXPECT_EQ(a.requeued_bytes, b.requeued_bytes);
  EXPECT_EQ(a.slew_events, b.slew_events);
  EXPECT_EQ(a.outage_lost_bytes, b.outage_lost_bytes);
  EXPECT_EQ(a.ack_retries, b.ack_retries);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.plan_upload_failures, b.plan_upload_failures);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.mean_station_utilization, b.mean_station_utilization);
  EXPECT_EQ(a.station_queued_bytes, b.station_queued_bytes);
  EXPECT_EQ(a.latency_minutes.sorted(), b.latency_minutes.sorted());
  EXPECT_EQ(a.urgent_latency_minutes.sorted(),
            b.urgent_latency_minutes.sorted());
  EXPECT_EQ(a.bulk_latency_minutes.sorted(), b.bulk_latency_minutes.sorted());
  EXPECT_EQ(a.backlog_gb.sorted(), b.backlog_gb.sorted());
  EXPECT_EQ(a.ack_delay_minutes.sorted(), b.ack_delay_minutes.sorted());
  EXPECT_EQ(a.cloud_latency_minutes.sorted(),
            b.cloud_latency_minutes.sorted());
  ASSERT_EQ(a.per_satellite.size(), b.per_satellite.size());
  for (std::size_t s = 0; s < a.per_satellite.size(); ++s) {
    EXPECT_EQ(a.per_satellite[s].generated_bytes,
              b.per_satellite[s].generated_bytes);
    EXPECT_EQ(a.per_satellite[s].delivered_bytes,
              b.per_satellite[s].delivered_bytes);
    EXPECT_EQ(a.per_satellite[s].backlog_bytes,
              b.per_satellite[s].backlog_bytes);
    EXPECT_EQ(a.per_satellite[s].pending_ack_bytes,
              b.per_satellite[s].pending_ack_bytes);
    EXPECT_EQ(a.per_satellite[s].dropped_bytes,
              b.per_satellite[s].dropped_bytes);
    EXPECT_EQ(a.per_satellite[s].tx_contacts, b.per_satellite[s].tx_contacts);
  }
  ASSERT_EQ(a.timeseries.size(), b.timeseries.size());
  for (std::size_t i = 0; i < a.timeseries.size(); ++i) {
    EXPECT_EQ(a.timeseries[i].delivered_bytes_cum,
              b.timeseries[i].delivered_bytes_cum);
    EXPECT_EQ(a.timeseries[i].backlog_bytes_total,
              b.timeseries[i].backlog_bytes_total);
    EXPECT_EQ(a.timeseries[i].active_links, b.timeseries[i].active_links);
  }
  EXPECT_EQ(render_report(a), render_report(b));
}

TEST(ParallelSimulator, FourThreads24hByteIdenticalToSerial) {
  const core::SimulationResult serial = run_sim(1, 0.0);
  const core::SimulationResult parallel = run_sim(4, 0.0);
  // Sanity: the scenario actually exercises delivery and retransmission.
  EXPECT_GT(serial.total_delivered_bytes, 0.0);
  EXPECT_GT(serial.assignments, 0);
  expect_identical(serial, parallel);
}

TEST(ParallelSimulator, HardwareThreadsMatchSerial) {
  const core::SimulationResult serial = run_sim(1, 0.0);
  const core::SimulationResult parallel = run_sim(0, 0.0);  // all cores
  expect_identical(serial, parallel);
}

TEST(ParallelSimulator, LookaheadPlannerDeterministicAcrossThreads) {
  const core::SimulationResult serial = run_sim(1, 2.0);
  const core::SimulationResult parallel = run_sim(4, 2.0);
  EXPECT_GT(serial.total_delivered_bytes, 0.0);
  expect_identical(serial, parallel);
}

TEST(ParallelSimulator, ObservabilityIsByteIdenticalAcrossThreads) {
  // DESIGN.md §10: the metrics fold and the event log are part of the
  // deterministic artifact.  A threaded run must scrape the identical
  // Prometheus text and emit the identical JSONL, byte for byte.
  obs::Registry serial_reg;
  std::ostringstream serial_events;
  obs::EventLog serial_log(&serial_events);
  const core::SimulationResult serial =
      run_sim(1, 0.0, &serial_reg, &serial_log);

  obs::Registry parallel_reg;
  std::ostringstream parallel_events;
  obs::EventLog parallel_log(&parallel_events);
  const core::SimulationResult parallel =
      run_sim(4, 0.0, &parallel_reg, &parallel_log);

  expect_identical(serial, parallel);

  std::ostringstream serial_prom, parallel_prom;
  serial_reg.write_prometheus(serial_prom);
  parallel_reg.write_prometheus(parallel_prom);
  EXPECT_GT(serial_reg.series_count(), 0u);
  EXPECT_EQ(serial_prom.str(), parallel_prom.str());

  EXPECT_FALSE(serial_events.str().empty());
  EXPECT_EQ(serial_events.str(), parallel_events.str());
}

TEST(ParallelSimulator, FaultedLookahead24hByteIdenticalAcrossThreads) {
  // The ISSUE's acceptance criterion: a 24 h run with a fixed fault seed
  // (the full storm taxonomy: churn, flaky ack relay, plan-upload
  // failures, backhaul brownouts) under the look-ahead planner with
  // replanning must produce a byte-equal Report, metrics exposition, and
  // event log serially and with 4 threads.
  obs::Registry serial_reg;
  std::ostringstream serial_events;
  obs::EventLog serial_log(&serial_events);
  const core::SimulationResult serial =
      run_sim(1, 1.0, &serial_reg, &serial_log, /*storm_faults=*/true);

  obs::Registry parallel_reg;
  std::ostringstream parallel_events;
  obs::EventLog parallel_log(&parallel_events);
  const core::SimulationResult parallel =
      run_sim(4, 1.0, &parallel_reg, &parallel_log, /*storm_faults=*/true);

  // The storm actually bites: outage transitions happen and data is lost
  // into the requeue loop.
  EXPECT_GT(serial.total_delivered_bytes, 0.0);
  EXPECT_GT(serial.ack_retries, 0);
  expect_identical(serial, parallel);

  std::ostringstream serial_prom, parallel_prom;
  serial_reg.write_prometheus(serial_prom);
  parallel_reg.write_prometheus(parallel_prom);
  EXPECT_NE(serial_prom.str().find("dgs_faults_"), std::string::npos);
  EXPECT_EQ(serial_prom.str(), parallel_prom.str());
  EXPECT_EQ(serial_events.str(), parallel_events.str());
}

}  // namespace
