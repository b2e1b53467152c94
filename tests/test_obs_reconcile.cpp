// End-to-end observability reconciliation (DESIGN.md §10): a 24 h run with
// every sink enabled must produce
//   (1) a Prometheus exposition with >= 20 series whose published families
//       equal the SimulationResult aggregates bit-for-bit,
//   (2) a Perfetto-loadable Chrome trace, and
//   (3) a JSONL event log that balances exactly against the Report — the
//       log is a ledger, not a sampling — and whose (step, t_hours) stamps
//       join the timeseries CSV with no off-by-one-step drift.
// Stepped sessions then check every published family against report() at
// every step boundary, mid-run included.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/dgs.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/fault_plan.h"
#include "src/faults/profiles.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/json_lite.h"

namespace dgs::core {
namespace {

using dgs::testing::json_number_field;
using dgs::testing::json_string_field;
using dgs::testing::json_valid;

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

TEST(ObsReconcile, TwentyFourHourRunBalancesExactly) {
  groundseg::NetworkOptions net;
  net.num_satellites = 6;
  net.num_stations = 12;
  net.seed = 5;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  weather::SyntheticWeatherProvider wx(11, kT0, 25.0);

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 24.0;
  opts.step_seconds = 60.0;
  opts.collect_timeseries = true;
  opts.urgent_fraction = 0.2;
  opts.station_backhaul_bps = 50e6;
  opts.slew_seconds = 5.0;
  opts.faults.outages.push_back(faults::OutageWindow{0, 2.0, 4.0});

  obs::Registry registry;
  opts.metrics = &registry;
  std::stringstream events;
  obs::EventLog log(&events);
  opts.events = &log;
  obs::clear_trace();
  obs::set_trace_enabled(true);

  const SimulationResult r = Simulator(sats, stations, &wx, opts).run();
  obs::set_trace_enabled(false);

  const int num_sats = static_cast<int>(sats.size());

  // --- (1) Prometheus exposition --------------------------------------
  EXPECT_GE(registry.series_count(), 20u);
  std::stringstream prom;
  registry.write_prometheus(prom);
  const std::string prom_text = prom.str();
  EXPECT_NE(prom_text.find("# TYPE dgs_sim_delivered_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(prom_text.find("# TYPE dgs_sim_latency_minutes histogram"),
            std::string::npos);
  // Published families are set from the result, so equality is exact.
  EXPECT_EQ(registry.counter("dgs_sim_generated_bytes_total", "")->value(),
            r.total_generated_bytes);
  EXPECT_EQ(registry.counter("dgs_sim_delivered_bytes_total", "")->value(),
            r.total_delivered_bytes);
  EXPECT_EQ(registry.counter("dgs_sim_wasted_bytes_total", "")->value(),
            r.wasted_transmission_bytes);
  EXPECT_EQ(registry.counter("dgs_sim_requeued_bytes_total", "")->value(),
            r.requeued_bytes);
  EXPECT_EQ(registry.counter("dgs_sim_assignments_total", "")->value(),
            static_cast<double>(r.assignments));
  EXPECT_EQ(
      registry.counter("dgs_sim_failed_assignments_total", "")->value(),
      static_cast<double>(r.failed_assignments));
  EXPECT_EQ(registry.counter("dgs_sim_slew_events_total", "")->value(),
            static_cast<double>(r.slew_events));
  EXPECT_EQ(registry.counter("dgs_sim_steps_total", "")->value(),
            static_cast<double>(r.steps));
  EXPECT_EQ(registry.gauge("dgs_backhaul_queued_bytes", "")->value(),
            r.station_queued_bytes);
  EXPECT_EQ(registry.counter("dgs_sim_dropped_bytes_total", "")->value(),
            r.total_dropped_bytes);
  EXPECT_EQ(registry.counter("dgs_sim_ack_batches_total", "")->value(),
            static_cast<double>(r.ack_delay_minutes.size()));
  EXPECT_EQ(
      registry.counter("dgs_faults_outage_lost_bytes_total", "")->value(),
      r.outage_lost_bytes);
  EXPECT_GT(registry.counter("dgs_vis_propagations_total", "")->value(),
            0.0);

  // --- (2) Chrome trace ------------------------------------------------
#ifndef DGS_OBS_NO_TRACING
  EXPECT_GT(obs::trace_span_count(), 0u);
  std::stringstream trace;
  obs::write_chrome_trace(trace);
  const std::string trace_text = trace.str();
  EXPECT_TRUE(json_valid(trace_text));
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("sim.step"), std::string::npos);
  EXPECT_NE(trace_text.find("sched.instant"), std::string::npos);
  obs::clear_trace();
#endif  // DGS_OBS_NO_TRACING

  // --- (3) JSONL ledger balances against the Report --------------------
  std::vector<double> delivered(num_sats, 0.0);
  double wasted = 0.0;
  double requeued = 0.0;
  std::int64_t bytes_moved_events = 0;
  std::int64_t contact_opens = 0;
  std::int64_t contact_closes = 0;
  std::int64_t held_steps_sum = 0;
  bool saw_outage_begin = false;
  bool saw_outage_end = false;
  std::map<std::int64_t, double> step_t_hours;

  std::string line;
  while (std::getline(events, line)) {
    ASSERT_TRUE(json_valid(line)) << line;
    std::string type;
    ASSERT_TRUE(json_string_field(line, "type", &type)) << line;
    double step = 0.0;
    double t_hours = 0.0;
    ASSERT_TRUE(json_number_field(line, "step", &step)) << line;
    ASSERT_TRUE(json_number_field(line, "t_hours", &t_hours)) << line;
    step_t_hours[static_cast<std::int64_t>(step)] = t_hours;

    if (type == "bytes_moved") {
      double sat = 0.0, bytes = 0.0;
      ASSERT_TRUE(json_number_field(line, "sat", &sat));
      ASSERT_TRUE(json_number_field(line, "bytes", &bytes));
      const bool received = line.find("\"received\": true") !=
                            std::string::npos;
      if (received) {
        delivered[static_cast<int>(sat)] += bytes;
      } else {
        wasted += bytes;
      }
      ++bytes_moved_events;
    } else if (type == "ack_relayed") {
      double rq = 0.0;
      ASSERT_TRUE(json_number_field(line, "requeued_bytes", &rq));
      requeued += rq;
    } else if (type == "contact_open") {
      ++contact_opens;
    } else if (type == "contact_close") {
      double held = 0.0;
      ASSERT_TRUE(json_number_field(line, "held_steps", &held));
      held_steps_sum += static_cast<std::int64_t>(held);
      ++contact_closes;
    } else if (type == "outage_begin") {
      saw_outage_begin = true;
    } else if (type == "outage_end") {
      saw_outage_end = true;
    }
  }

  // Per-queue delivered bytes: the ledger replays the exact accumulation
  // order of the result, so the sums are bit-identical, not just close.
  for (int s = 0; s < num_sats; ++s) {
    EXPECT_EQ(delivered[s], r.per_satellite[s].delivered_bytes) << "sat "
                                                                << s;
  }
  EXPECT_EQ(wasted, r.wasted_transmission_bytes);
  EXPECT_EQ(requeued, r.requeued_bytes);
  // One bytes_moved per executed assignment; every open contact closes and
  // is held once per assignment.
  EXPECT_EQ(bytes_moved_events, r.assignments);
  EXPECT_EQ(contact_opens, contact_closes);
  EXPECT_EQ(held_steps_sum, r.assignments);
  EXPECT_TRUE(saw_outage_begin);
  EXPECT_TRUE(saw_outage_end);

  // --- (4) Timeseries join: shared StepClock, no drift ------------------
  ASSERT_EQ(static_cast<std::int64_t>(r.timeseries.size()), r.steps);
  for (const auto& [step, t_hours] : step_t_hours) {
    ASSERT_GE(step, 0);
    ASSERT_LT(step, r.steps);
    // Both artifacts print the same double with %.4f; parsing the CSV's
    // rendering must give back exactly the event's stamp.
    char csv_hours[32];
    std::snprintf(csv_hours, sizeof(csv_hours), "%.4f",
                  r.timeseries[static_cast<std::size_t>(step)].hours);
    EXPECT_EQ(t_hours, std::atof(csv_hours)) << "step " << step;
  }
}

// --- Published families equal their sources at every step ---------------

struct SteppedScenario {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  SimulationOptions opts;
};

SteppedScenario stepped_scenario() {
  groundseg::NetworkOptions net;
  net.num_satellites = 8;
  net.num_stations = 12;
  net.seed = 13;
  SteppedScenario s;
  s.sats = groundseg::generate_constellation(net, kT0);
  s.stations = groundseg::generate_dgs_stations(net);
  s.opts.start = kT0;
  s.opts.duration_hours = 3.0;
  s.opts.faults = faults::make_profile("storm", 7, net.num_stations);
  s.opts.station_backhaul_bps = 50e6;
  s.opts.slew_seconds = 5.0;
  return s;
}

/// Every published family against report() (and, for the stations-down
/// gauge, the fault timeline's mask of the step just executed).
void expect_published_equal_report(obs::Registry& reg, const Session& s,
                                   const SimulationOptions& opts) {
  const SimulationResult r = s.report();
  const auto counter = [&](const std::string& name) {
    return reg.counter(name, "")->value();
  };
  const auto gauge = [&](const std::string& name) {
    return reg.gauge(name, "")->value();
  };
  const auto count = [](std::int64_t n) { return static_cast<double>(n); };
  const std::string at = "step " + std::to_string(s.step_index());
  EXPECT_EQ(counter("dgs_sim_generated_bytes_total"),
            r.total_generated_bytes) << at;
  EXPECT_EQ(counter("dgs_sim_delivered_bytes_total"),
            r.total_delivered_bytes) << at;
  EXPECT_EQ(counter("dgs_sim_dropped_bytes_total"), r.total_dropped_bytes)
      << at;
  EXPECT_EQ(counter("dgs_sim_wasted_bytes_total"),
            r.wasted_transmission_bytes) << at;
  EXPECT_EQ(counter("dgs_sim_requeued_bytes_total"), r.requeued_bytes)
      << at;
  EXPECT_EQ(counter("dgs_sim_assignments_total"), count(r.assignments))
      << at;
  EXPECT_EQ(counter("dgs_sim_failed_assignments_total"),
            count(r.failed_assignments)) << at;
  EXPECT_EQ(counter("dgs_sim_slew_events_total"), count(r.slew_events))
      << at;
  EXPECT_EQ(counter("dgs_sim_steps_total"), count(r.steps)) << at;
  EXPECT_EQ(counter("dgs_sim_ack_batches_total"),
            static_cast<double>(r.ack_delay_minutes.size())) << at;
  double backlog = 0.0;
  double pending = 0.0;
  std::int64_t tx_contacts = 0;
  for (const SatelliteOutcome& o : r.per_satellite) {
    backlog += o.backlog_bytes;
    pending += o.pending_ack_bytes;
    tx_contacts += o.tx_contacts;
  }
  EXPECT_EQ(counter("dgs_sim_plan_uploads_total"), count(tx_contacts))
      << at;
  EXPECT_EQ(gauge("dgs_sim_backlog_bytes"), backlog) << at;
  EXPECT_EQ(gauge("dgs_sim_pending_ack_bytes"), pending) << at;
  EXPECT_EQ(gauge("dgs_backhaul_queued_bytes"), r.station_queued_bytes)
      << at;
  EXPECT_EQ(counter("dgs_faults_outage_lost_bytes_total"),
            r.outage_lost_bytes) << at;
  EXPECT_EQ(counter("dgs_faults_ack_retries_total"), count(r.ack_retries))
      << at;
  EXPECT_EQ(counter("dgs_faults_replans_total"), count(r.replans)) << at;
  EXPECT_EQ(counter("dgs_faults_plan_upload_failures_total"),
            count(r.plan_upload_failures)) << at;
  std::int64_t down = 0;
  if (s.step_index() > 0) {
    const faults::FaultTimeline timeline(opts.faults, s.num_stations(),
                                         s.num_steps(),
                                         opts.step_seconds);
    std::vector<char> mask;
    timeline.fill_station_down(s.step_index() - 1, &mask);
    for (const char d : mask) down += d != 0 ? 1 : 0;
  }
  EXPECT_EQ(gauge("dgs_faults_stations_down"), count(down)) << at;
  for (const TenantOutcome& t : r.per_tenant) {
    const std::string prefix = "dgs_tenant_" + t.name;
    EXPECT_EQ(counter(prefix + "_delivered_bytes_total"), t.delivered_bytes)
        << at;
    EXPECT_EQ(counter(prefix + "_assignments_total"), count(t.assignments))
        << at;
    EXPECT_EQ(gauge(prefix + "_share"), t.share) << at;
  }
}

/// Steps `s` to the end, checking every published family at construction
/// and after every step.
SimulationResult run_checking_every_step(const SteppedScenario& s) {
  obs::Registry registry;
  SimulationOptions opts = s.opts;
  opts.metrics = &registry;
  Session session(s.sats, s.stations, nullptr, opts);
  expect_published_equal_report(registry, session, opts);
  while (!session.done()) {
    session.step();
    expect_published_equal_report(registry, session, opts);
  }
  return session.report();
}

// Per-instant tenants under the storm profile: the tenant families, the
// fault counters and the stations-down gauge.
TEST(ObsReconcile, PublishedFamiliesEqualTheReportAtEveryStep) {
  SteppedScenario s = stepped_scenario();
  TenantSpec a;
  a.name = "a";
  a.weight = 1.0;
  a.satellites = {0, 1, 2, 3};
  TenantSpec b;
  b.name = "b";
  b.weight = 2.0;
  b.satellites = {4, 5, 6, 7};
  s.opts.tenants = {a, b};
  const SimulationResult r = run_checking_every_step(s);
  EXPECT_GT(r.ack_retries, 0);
  EXPECT_GT(r.per_tenant.at(0).delivered_bytes, 0.0);
}

// Look-ahead replans, and recorders small enough to drop data mid-run:
// the dropped-bytes counter is published every step, not only at the end.
TEST(ObsReconcile, PublishedFamiliesEqualTheReportWhileRecordersDrop) {
  SteppedScenario s = stepped_scenario();
  s.opts.lookahead_hours = 1.0;
  for (groundseg::SatelliteConfig& sat : s.sats) {
    sat.storage_capacity_bytes = 0.02 * sat.data_generation_bytes_per_day;
  }
  const SimulationResult r = run_checking_every_step(s);
  EXPECT_GT(r.total_dropped_bytes, 0.0);
  EXPECT_GT(r.replans, 0);
}

}  // namespace
}  // namespace dgs::core
