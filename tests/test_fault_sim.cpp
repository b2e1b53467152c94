// End-to-end fault injection through the simulator (DESIGN.md §11):
// graceful degradation under outages, replanning in the look-ahead
// planner, ack-relay delays, plan-upload failures, backhaul blackouts,
// and the fixed-seed golden fault-event sequence that must be
// bit-identical across thread counts and across runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/groundseg/network_gen.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/weather/synthetic.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

groundseg::NetworkOptions mid_net() {
  groundseg::NetworkOptions net;
  net.num_satellites = 10;
  net.num_stations = 12;
  net.tx_fraction = 0.25;
  net.seed = 99;
  return net;
}

class FaultSimTest : public ::testing::Test {
 protected:
  FaultSimTest()
      : sats_(groundseg::generate_constellation(mid_net(), kT0)),
        stations_(groundseg::generate_dgs_stations(mid_net())) {}

  SimulationOptions base_opts() const {
    SimulationOptions opts;
    opts.start = kT0;
    opts.duration_hours = 8.0;
    opts.step_seconds = 60.0;
    opts.urgent_fraction = 0.05;
    return opts;
  }

  double conservation_slack(const SimulationResult& r) const {
    return r.total_generated_bytes * 1e-9 + 1.0;
  }

  double total_backlog(const SimulationResult& r) const {
    double backlog = 0.0;
    for (const auto& o : r.per_satellite) backlog += o.backlog_bytes;
    return backlog;
  }

  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
};

TEST_F(FaultSimTest, LookaheadReplansWhenAssignedStationsFault) {
  // Every station drops out mid-horizon, after the plan covering that
  // window was already committed.  The planner must (a) keep running —
  // this configuration used to be rejected outright — (b) replan at
  // least once, and (c) lose the stale step's bytes into the ordinary
  // wasted/requeue loop rather than dropping them on the floor.  The
  // 2.4 h start deliberately falls inside a plan window (refreshes land
  // on whole hours here), so the begin step executes stale assignments.
  SimulationOptions opts = base_opts();
  opts.lookahead_hours = 1.0;
  for (int g = 0; g < static_cast<int>(stations_.size()); ++g) {
    opts.faults.outages.push_back(faults::OutageWindow{g, 2.4, 4.4});
  }
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();

  EXPECT_GT(r.total_delivered_bytes, 0.0);
  EXPECT_GE(r.replans, 1);
  EXPECT_GT(r.outage_lost_bytes, 0.0);
  // Clear sky (nullptr weather), no slew: outages are the only way to
  // waste a transmission, so the two ledgers agree exactly.
  EXPECT_EQ(r.wasted_transmission_bytes, r.outage_lost_bytes);
  EXPECT_NEAR(r.total_generated_bytes,
              r.total_delivered_bytes + total_backlog(r) +
                  r.wasted_transmission_bytes - r.requeued_bytes,
              conservation_slack(r));
}

TEST_F(FaultSimTest, PerInstantSchedulerAvoidsFaultedStations) {
  // With the down mask excluding candidates at match time, only the
  // steps where the outage *begins* mid-plan can waste bytes; per-instant
  // matching sees the mask every step, so nothing is ever sent into a
  // known-down station.
  SimulationOptions opts = base_opts();
  opts.faults.outages.push_back(faults::OutageWindow{0, 1.0, 7.0});
  opts.faults.outages.push_back(faults::OutageWindow{1, 1.0, 7.0});
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  EXPECT_EQ(r.outage_lost_bytes, 0.0);
  EXPECT_EQ(r.replans, 0);
}

TEST_F(FaultSimTest, ChurnDegradesButConserves) {
  weather::SyntheticWeatherProvider wx(31, kT0, 25.0);
  SimulationOptions clean = base_opts();
  Session clean_sim(sats_, stations_, &wx, clean);
  const SimulationResult baseline = clean_sim.run_to_end();

  SimulationOptions opts = base_opts();
  opts.faults.seed = 7;
  opts.faults.churn.mtbf_hours = 4.0;
  opts.faults.churn.mttr_hours = 1.0;
  Session sim(sats_, stations_, &wx, opts);
  const SimulationResult r = sim.run_to_end();

  EXPECT_GT(r.total_delivered_bytes, 0.0);
  EXPECT_LT(r.total_delivered_bytes, baseline.total_delivered_bytes);
  EXPECT_NEAR(r.total_generated_bytes,
              r.total_delivered_bytes + total_backlog(r) +
                  r.wasted_transmission_bytes - r.requeued_bytes,
              conservation_slack(r));
}

TEST_F(FaultSimTest, AckRelayLossDelaysAcknowledgements) {
  SimulationOptions clean = base_opts();
  Session clean_sim(sats_, stations_, nullptr, clean);
  const SimulationResult baseline = clean_sim.run_to_end();
  ASSERT_FALSE(baseline.ack_delay_minutes.empty());

  SimulationOptions opts = base_opts();
  opts.faults.seed = 11;
  opts.faults.ack_relay.loss_probability = 0.6;
  opts.faults.ack_relay.initial_backoff_s = 120.0;
  opts.faults.ack_relay.backoff_multiplier = 2.0;
  opts.faults.ack_relay.max_backoff_s = 1800.0;
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();

  EXPECT_GT(r.ack_retries, 0);
  ASSERT_FALSE(r.ack_delay_minutes.empty());
  // Reports held back by retries make the mean ack delay visibly worse.
  EXPECT_GT(r.ack_delay_minutes.mean(), baseline.ack_delay_minutes.mean());
  EXPECT_EQ(r.outage_lost_bytes, 0.0);  // stations stayed up
}

TEST_F(FaultSimTest, PlanUploadFailuresAreCountedAndDegrade) {
  SimulationOptions opts = base_opts();
  opts.faults.seed = 23;
  opts.faults.plan_upload.failure_probability = 0.5;
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.plan_upload_failures, 0);
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  EXPECT_NEAR(r.total_generated_bytes,
              r.total_delivered_bytes + total_backlog(r) +
                  r.wasted_transmission_bytes - r.requeued_bytes,
              conservation_slack(r));
}

TEST_F(FaultSimTest, BackhaulBlackoutStrandsDataAtTheEdge) {
  // A whole-run hard blackout on every station: chunks reach the ground
  // (delivery accounting is untouched) but never reach the cloud.
  SimulationOptions opts = base_opts();
  opts.station_backhaul_bps = 50e6;
  for (int g = 0; g < static_cast<int>(stations_.size()); ++g) {
    opts.faults.backhaul.push_back(
        faults::BackhaulFault{g, 0.0, opts.duration_hours, 0.0});
  }
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  EXPECT_TRUE(r.cloud_latency_minutes.empty());
  EXPECT_GT(r.station_queued_bytes, 0.0);
}

// ---------------------------------------------------------------------
// Fixed-seed golden fault-event sequence: the JSONL fault events are a
// deterministic artifact — bit-identical across thread counts and
// across repeated runs (ISSUE acceptance; DESIGN.md §9 + §11).

std::string run_fault_events(int num_threads) {
  const auto sats = groundseg::generate_constellation(mid_net(), kT0);
  const auto stations = groundseg::generate_dgs_stations(mid_net());
  weather::SyntheticWeatherProvider wx(31, kT0, 25.0);

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 8.0;
  opts.step_seconds = 60.0;
  opts.urgent_fraction = 0.05;
  opts.lookahead_hours = 1.0;
  opts.station_backhaul_bps = 40e6;
  opts.parallel.num_threads = num_threads;
  opts.parallel.chunk_size = 4;

  opts.faults.seed = 20201104;
  opts.faults.churn.mtbf_hours = 5.0;
  opts.faults.churn.mttr_hours = 1.0;
  opts.faults.ack_relay.loss_probability = 0.35;
  opts.faults.ack_relay.initial_backoff_s = 30.0;
  opts.faults.ack_relay.max_backoff_s = 900.0;
  opts.faults.plan_upload.failure_probability = 0.15;
  opts.faults.backhaul.push_back(faults::BackhaulFault{2, 1.0, 5.0, 0.0});
  opts.faults.backhaul.push_back(faults::BackhaulFault{7, 2.0, 6.0, 0.25});

  std::ostringstream events;
  obs::EventLog log(&events);
  opts.events = &log;
  Session sim(sats, stations, &wx, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  return events.str();
}

std::string fault_lines_only(const std::string& jsonl) {
  static const char* kFaultTypes[] = {
      "outage_begin", "outage_end", "outage_loss", "ack_relay_retry",
      "plan_upload_failed", "replan", "backhaul_fault_begin",
      "backhaul_fault_end"};
  std::string out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    for (const char* type : kFaultTypes) {
      if (line.find(std::string("\"type\": \"") + type + "\"") !=
          std::string::npos) {
        out += line;
        out += '\n';
        break;
      }
    }
  }
  return out;
}

TEST(FaultGolden, EventSequenceIsBitIdenticalAcrossThreadsAndRuns) {
  const std::string serial_a = fault_lines_only(run_fault_events(1));
  const std::string serial_b = fault_lines_only(run_fault_events(1));
  const std::string threaded = fault_lines_only(run_fault_events(4));

  ASSERT_FALSE(serial_a.empty());
  // The storm-like plan exercises the whole taxonomy.
  EXPECT_NE(serial_a.find("\"type\": \"outage_begin\""), std::string::npos);
  EXPECT_NE(serial_a.find("\"type\": \"ack_relay_retry\""),
            std::string::npos);
  EXPECT_NE(serial_a.find("\"type\": \"backhaul_fault_begin\""),
            std::string::npos);

  EXPECT_EQ(serial_a, serial_b) << "same seed, same run: not reproducible";
  EXPECT_EQ(serial_a, threaded) << "fault events depend on thread count";
}

TEST(FaultGolden, FaultMetricsMirrorTheResultExactly) {
  const auto sats = groundseg::generate_constellation(mid_net(), kT0);
  const auto stations = groundseg::generate_dgs_stations(mid_net());

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 6.0;
  opts.step_seconds = 60.0;
  opts.lookahead_hours = 1.0;
  opts.faults.seed = 3;
  opts.faults.churn.mtbf_hours = 3.0;
  opts.faults.churn.mttr_hours = 1.0;
  opts.faults.plan_upload.failure_probability = 0.25;

  obs::Registry registry;
  opts.metrics = &registry;
  Session sim(sats, stations, nullptr, opts);
  const SimulationResult r = sim.run_to_end();

  EXPECT_EQ(
      registry.counter("dgs_faults_outage_lost_bytes_total", "")->value(),
      r.outage_lost_bytes);
  EXPECT_EQ(registry.counter("dgs_faults_replans_total", "")->value(),
            static_cast<double>(r.replans));
  EXPECT_EQ(
      registry.counter("dgs_faults_plan_upload_failures_total", "")->value(),
      static_cast<double>(r.plan_upload_failures));
  EXPECT_EQ(registry.counter("dgs_faults_ack_retries_total", "")->value(),
            static_cast<double>(r.ack_retries));
  EXPECT_GT(
      registry.counter("dgs_faults_outage_transitions_total", "")->value(),
      0.0);
}

TEST(FaultGolden, FaultFreeRunsRegisterNoFaultMetrics) {
  // An empty plan must leave the exposition exactly as it was before the
  // fault subsystem existed — no dgs_faults_* series appear.
  const auto sats = groundseg::generate_constellation(mid_net(), kT0);
  const auto stations = groundseg::generate_dgs_stations(mid_net());
  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 2.0;
  obs::Registry registry;
  opts.metrics = &registry;
  Session sim(sats, stations, nullptr, opts);
  (void)sim.run_to_end();
  std::ostringstream prom;
  registry.write_prometheus(prom);
  EXPECT_EQ(prom.str().find("dgs_faults_"), std::string::npos);
}

}  // namespace
}  // namespace dgs::core
