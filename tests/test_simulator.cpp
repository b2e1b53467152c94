// Whole-system simulation: conservation laws, ack-free protocol behaviour,
// metric plausibility, option handling.  Uses reduced-scale networks so the
// suite stays fast.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/session.h"
#include "src/weather/synthetic.h"

namespace dgs::core {
namespace {

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

groundseg::NetworkOptions small_net() {
  groundseg::NetworkOptions opts;
  opts.num_stations = 25;
  opts.num_satellites = 12;
  opts.tx_fraction = 0.2;
  opts.seed = 5;
  return opts;
}

SimulationOptions short_sim() {
  SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 6.0;
  opts.step_seconds = 60.0;
  return opts;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : sats_(groundseg::generate_constellation(small_net(), kEpoch)),
        stations_(groundseg::generate_dgs_stations(small_net())) {}

  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
};

TEST_F(SimulatorTest, RejectsBadInputs) {
  EXPECT_THROW(Session({}, stations_, nullptr, short_sim()),
               std::invalid_argument);
  EXPECT_THROW(Session(sats_, {}, nullptr, short_sim()),
               std::invalid_argument);
  SimulationOptions bad = short_sim();
  bad.duration_hours = 0.0;
  EXPECT_THROW(Session(sats_, stations_, nullptr, bad),
               std::invalid_argument);
  bad = short_sim();
  bad.step_seconds = -1.0;
  EXPECT_THROW(Session(sats_, stations_, nullptr, bad),
               std::invalid_argument);
}

// validate() bounds the lane count before any pool is built, so a library
// caller cannot ask a Session for more workers than the front ends allow.
// Checked through validate() alone: nothing here starts a thread.
TEST(SimulationOptionsValidate, BoundsTheThreadCount) {
  SimulationOptions o = short_sim();
  o.parallel.num_threads = util::kMaxThreads;
  EXPECT_FALSE(o.validate().has_value());
  o.parallel.num_threads = util::kMaxThreads + 1;
  const auto e = o.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "parallel.num_threads");
  EXPECT_EQ(e->message, "must be <= 256 (got 257)");
}

TEST_F(SimulatorTest, ByteConservation) {
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();

  double backlog = 0.0, delivered = 0.0, pending = 0.0, generated = 0.0;
  for (const SatelliteOutcome& o : r.per_satellite) {
    backlog += o.backlog_bytes;
    delivered += o.delivered_bytes;
    pending += o.pending_ack_bytes;
    generated += o.generated_bytes;
    // Per-satellite conservation: generated = delivered + backlog.
    EXPECT_NEAR(o.generated_bytes, o.delivered_bytes + o.backlog_bytes,
                o.generated_bytes * 1e-9 + 1.0);
    // Storage high-water at least the final storage.
    EXPECT_GE(o.storage_high_water_bytes,
              o.backlog_bytes + o.pending_ack_bytes - 1.0);
  }
  EXPECT_NEAR(generated, r.total_generated_bytes, 1.0);
  EXPECT_NEAR(delivered, r.total_delivered_bytes, 1.0);
  EXPECT_NEAR(r.total_generated_bytes,
              r.total_delivered_bytes + backlog,
              r.total_generated_bytes * 1e-9 + 1.0);
  // Pending-ack bytes were delivered, so they can never exceed delivered.
  EXPECT_LE(pending, delivered + 1.0);
}

TEST_F(SimulatorTest, GenerationRateIsHonored) {
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  // 12 satellites x 100 GB/day x 6/24 day.
  EXPECT_NEAR(r.total_generated_bytes, 12 * 100e9 * 0.25, 1e6);
}

TEST_F(SimulatorTest, SomethingIsDelivered) {
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  EXPECT_GT(r.assignments, 0);
  EXPECT_FALSE(r.latency_minutes.empty());
  EXPECT_EQ(r.backlog_gb.size(), sats_.size());
}

TEST_F(SimulatorTest, LatenciesArePositiveAndBounded) {
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  EXPECT_GE(r.latency_minutes.min(), 0.0);
  EXPECT_LE(r.latency_minutes.max(), 6.0 * 60.0 + 1.0);  // within horizon
}

TEST_F(SimulatorTest, ClearSkyNeverFailsAssignments) {
  // With no weather and rates scheduled from the same clear-sky model,
  // every scheduled slot must close.
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  EXPECT_EQ(r.failed_assignments, 0);
}

TEST_F(SimulatorTest, AcksRequireTxContact) {
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  int tx_contacts = 0;
  for (const SatelliteOutcome& o : r.per_satellite) {
    tx_contacts += o.tx_contacts;
  }
  EXPECT_GT(tx_contacts, 0);
  EXPECT_FALSE(r.ack_delay_minutes.empty());
  // Ack delays are non-negative (ack can arrive in the same step).
  EXPECT_GE(r.ack_delay_minutes.min(), 0.0);
}

TEST_F(SimulatorTest, NoTxStationsMeansNoAcksEver) {
  auto rx_only = stations_;
  for (auto& gs : rx_only) gs.tx_capable = false;
  Session sim(sats_, rx_only, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  EXPECT_TRUE(r.ack_delay_minutes.empty());
  // Delivered-but-unacked data is still aboard every satellite.
  for (const SatelliteOutcome& o : r.per_satellite) {
    EXPECT_NEAR(o.pending_ack_bytes, o.delivered_bytes, 1.0);
    EXPECT_EQ(o.tx_contacts, 0);
  }
}

TEST_F(SimulatorTest, StorageHighWaterGrowsWithoutAcks) {
  auto rx_only = stations_;
  for (auto& gs : rx_only) gs.tx_capable = false;
  Session with_tx(sats_, stations_, nullptr, short_sim());
  Session without_tx(sats_, rx_only, nullptr, short_sim());
  const SimulationResult a = with_tx.run_to_end();
  const SimulationResult b = without_tx.run_to_end();
  double hw_with = 0.0, hw_without = 0.0;
  for (const auto& o : a.per_satellite) hw_with += o.storage_high_water_bytes;
  for (const auto& o : b.per_satellite) {
    hw_without += o.storage_high_water_bytes;
  }
  EXPECT_GE(hw_without, hw_with);
}

TEST_F(SimulatorTest, MorePowerfulNetworkDeliversMore) {
  // Doubling station count cannot reduce delivered volume.
  groundseg::NetworkOptions big = small_net();
  big.num_stations = 50;
  auto more_stations = groundseg::generate_dgs_stations(big);
  Session small_sim(sats_, stations_, nullptr, short_sim());
  Session big_sim(sats_, more_stations, nullptr, short_sim());
  EXPECT_GE(big_sim.run_to_end().total_delivered_bytes,
            small_sim.run_to_end().total_delivered_bytes * 0.95);
}

TEST_F(SimulatorTest, WarmStartBacklogIsAccounted) {
  SimulationOptions opts = short_sim();
  opts.initial_backlog_bytes = 5e9;
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_NEAR(r.total_generated_bytes, 12 * (100e9 * 0.25 + 5e9), 1e6);
  // Warm data is older than the horizon start, so some latencies exceed
  // the warm-start age floor is reflected in the tail.
  EXPECT_GT(r.latency_minutes.max(), opts.initial_backlog_age_hours * 60.0);
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  weather::SyntheticWeatherProvider wx(99, kEpoch, 7.0);
  Session a(sats_, stations_, &wx, short_sim());
  Session b(sats_, stations_, &wx, short_sim());
  const SimulationResult ra = a.run_to_end();
  const SimulationResult rb = b.run_to_end();
  EXPECT_DOUBLE_EQ(ra.total_delivered_bytes, rb.total_delivered_bytes);
  EXPECT_EQ(ra.assignments, rb.assignments);
  EXPECT_EQ(ra.failed_assignments, rb.failed_assignments);
}

TEST_F(SimulatorTest, WeatherBlindSchedulingFailsSometimes) {
  // Under real weather, a clear-sky scheduler overestimates rates and some
  // slots must fail; a weather-aware scheduler fails far fewer.
  weather::SyntheticWeatherProvider wx(1234, kEpoch, 7.0);
  SimulationOptions aware = short_sim();
  aware.weather_aware = true;
  aware.couple_forecast_to_plan_upload = false;  // perfect forecasts
  SimulationOptions blind = short_sim();
  blind.weather_aware = false;

  const SimulationResult ra =
      Session(sats_, stations_, &wx, aware).run_to_end();
  const SimulationResult rb =
      Session(sats_, stations_, &wx, blind).run_to_end();
  EXPECT_EQ(ra.failed_assignments, 0);  // perfect knowledge never fails
  EXPECT_GE(rb.failed_assignments, ra.failed_assignments);
}

TEST_F(SimulatorTest, UtilizationIsAFraction) {
  Session sim(sats_, stations_, nullptr, short_sim());
  const SimulationResult r = sim.run_to_end();
  EXPECT_GE(r.mean_station_utilization, 0.0);
  EXPECT_LE(r.mean_station_utilization, 1.0);
}

}  // namespace
}  // namespace dgs::core
