// Priority tiers: queue ordering, SLA-weighted value, and end-to-end
// urgent-tier latency in the simulator (paper §3.1 SLA weighting and §3.3
// edge-compute prioritization).
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/session.h"
#include "src/core/value.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr double kGb = 1e9;

TEST(PriorityQueueOrder, UrgentJumpsAheadOfBulk) {
  OnboardQueue q;
  q.generate(100.0, kT0);                          // bulk, old
  q.generate(100.0, kT0.plus_seconds(600), 8.0);   // urgent, new
  std::vector<double> priorities;
  q.transmit(100.0, kT0.plus_seconds(1200), [&](double, const DataChunk& c) {
    priorities.push_back(c.priority);
  });
  ASSERT_EQ(priorities.size(), 1u);
  EXPECT_DOUBLE_EQ(priorities[0], 8.0);  // urgent went first despite age
}

TEST(PriorityQueueOrder, FifoWithinSamePriority) {
  OnboardQueue q;
  q.generate(50.0, kT0, 2.0);
  q.generate(50.0, kT0.plus_seconds(60), 2.0);
  q.generate(50.0, kT0.plus_seconds(120), 2.0);
  std::vector<double> latencies;
  q.transmit(150.0, kT0.plus_seconds(300),
             [&](double lat, const DataChunk&) { latencies.push_back(lat); });
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_GT(latencies[0], latencies[1]);
  EXPECT_GT(latencies[1], latencies[2]);
}

TEST(PriorityQueueOrder, ThreeTierServiceOrder) {
  OnboardQueue q;
  q.generate(10.0, kT0, 1.0);
  q.generate(10.0, kT0.plus_seconds(10), 5.0);
  q.generate(10.0, kT0.plus_seconds(20), 3.0);
  q.generate(10.0, kT0.plus_seconds(30), 5.0);
  std::vector<double> order;
  q.transmit(40.0, kT0.plus_seconds(60),
             [&](double, const DataChunk& c) { order.push_back(c.priority); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_DOUBLE_EQ(order[0], 5.0);
  EXPECT_DOUBLE_EQ(order[1], 5.0);
  EXPECT_DOUBLE_EQ(order[2], 3.0);
  EXPECT_DOUBLE_EQ(order[3], 1.0);
}

TEST(PriorityQueueOrder, RejectsNegativePriority) {
  OnboardQueue q;
  EXPECT_THROW(q.generate(1.0, kT0, -1.0), std::invalid_argument);
}

TEST(PriorityValue, UrgentDataRaisesEdgeValue) {
  OnboardQueue bulk, urgent;
  bulk.generate(1.0 * kGb, kT0, 1.0);
  urgent.generate(1.0 * kGb, kT0, 8.0);
  LatencyValue phi;
  const util::Epoch now = kT0.plus_seconds(600);
  EXPECT_NEAR(phi.edge_value(urgent, now, kGb),
              8.0 * phi.edge_value(bulk, now, kGb), 1e-9);
}

TEST(PriorityValue, FreshUrgentDataStillHasValue) {
  OnboardQueue q;
  q.generate(1.0 * kGb, kT0, 8.0);
  LatencyValue phi;
  // Age ~0 but value must be positive so the scheduler can react.
  EXPECT_GT(phi.edge_value(q, kT0, kGb), 0.0);
}

TEST(PrioritySimulation, UrgentTierGetsLowerLatency) {
  groundseg::NetworkOptions net;
  net.num_stations = 40;
  net.num_satellites = 30;
  net.seed = 3;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 8.0;
  opts.step_seconds = 60.0;
  opts.urgent_fraction = 0.05;
  opts.urgent_priority = 8.0;

  const SimulationResult r =
      Session(sats, stations, nullptr, opts).run_to_end();
  ASSERT_FALSE(r.urgent_latency_minutes.empty());
  ASSERT_FALSE(r.bulk_latency_minutes.empty());
  // The urgent tier must beat bulk at the median and the tail.
  EXPECT_LE(r.urgent_latency_minutes.median(),
            r.bulk_latency_minutes.median());
  EXPECT_LE(r.urgent_latency_minutes.percentile(90.0),
            r.bulk_latency_minutes.percentile(90.0));
}

TEST(PrioritySimulation, NoTierMeansNoUrgentSamples) {
  groundseg::NetworkOptions net;
  net.num_stations = 15;
  net.num_satellites = 8;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 4.0;
  const SimulationResult r =
      Session(sats, stations, nullptr, opts).run_to_end();
  EXPECT_TRUE(r.urgent_latency_minutes.empty());
  EXPECT_EQ(r.bulk_latency_minutes.size(), r.latency_minutes.size());
}

}  // namespace
}  // namespace dgs::core
