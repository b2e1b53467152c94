// Backhaul sizing (VERGE comparison) and the station edge queue.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/backend/backhaul.h"
#include "src/backend/station_edge.h"
#include "src/core/session.h"

namespace dgs::backend {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

TEST(Backhaul, RawIqRateFormula) {
  // 66.7 Msym/s, 1.25x oversampling, 8-bit I + 8-bit Q = 1.334 Gbps.
  EXPECT_NEAR(raw_iq_backhaul_bps(66.7e6, 1.25, 8), 1.334e9, 1e6);
}

TEST(Backhaul, DecodedTracksInformationRate) {
  const auto& top = link::dvbs2_modcods().back();  // 32APSK 9/10
  EXPECT_NEAR(decoded_backhaul_bps(top, 66.7e6, 0.0),
              link::bitrate_bps(top, 66.7e6), 1.0);
  EXPECT_GT(decoded_backhaul_bps(top, 66.7e6, 0.03),
            decoded_backhaul_bps(top, 66.7e6, 0.0));
}

TEST(Backhaul, VergeReductionClaim) {
  // Paper §2: co-locating the receiver reduces required backhaul "by
  // orders of magnitude" vs streaming raw RF.  At robust MODCODs (which
  // is where receive-only stations spend bad-weather passes) the factor
  // must exceed 10x, approaching 40x at QPSK 1/4 with 8-bit samples.
  const auto mods = link::dvbs2_modcods();
  const double at_qpsk14 = backhaul_reduction_factor(mods.front(), 66.7e6);
  const double at_top = backhaul_reduction_factor(mods.back(), 66.7e6);
  EXPECT_GT(at_qpsk14, 30.0);
  EXPECT_GT(at_top, 4.0);
  // Reduction shrinks as the MODCOD climbs (decoded rate grows, raw rate
  // is constant).
  EXPECT_GT(at_qpsk14, at_top);
}

TEST(Backhaul, RejectsBadInputs) {
  EXPECT_THROW(raw_iq_backhaul_bps(0.0), std::invalid_argument);
  EXPECT_THROW(raw_iq_backhaul_bps(1e6, 0.9), std::invalid_argument);
  EXPECT_THROW(raw_iq_backhaul_bps(1e6, 1.25, 0), std::invalid_argument);
  EXPECT_THROW(
      decoded_backhaul_bps(link::dvbs2_modcods().front(), 1e6, -0.1),
      std::invalid_argument);
}

TEST(StationEdge, DrainRateIsBackhaulLimited) {
  StationEdgeQueue q(80e6);  // 80 Mbps => 10 MB/s
  q.receive(100e6, 1.0, kT0, kT0);
  const double uploaded = q.drain(1.0, kT0.plus_seconds(1), nullptr);
  EXPECT_NEAR(uploaded, 10e6, 1.0);
  EXPECT_NEAR(q.queued_bytes(), 90e6, 1.0);
}

TEST(StationEdge, UrgentUploadsFirst) {
  StationEdgeQueue q(80e6);
  q.receive(50e6, 1.0, kT0, kT0);                       // bulk, earlier
  q.receive(5e6, 8.0, kT0.plus_seconds(60),
            kT0.plus_seconds(60));                      // urgent, later
  std::vector<double> order;
  q.drain(10.0, kT0.plus_seconds(70), [&](double, const EdgeItem& item) {
    order.push_back(item.priority);
  });
  ASSERT_GE(order.size(), 1u);
  EXPECT_DOUBLE_EQ(order[0], 8.0);  // urgent beat the earlier bulk item
}

TEST(StationEdge, CloudLatencySpansCaptureToUpload) {
  StationEdgeQueue q(80e6);
  // Captured at t0, hit the ground at t0+300, uploaded by t0+301.
  q.receive(1e6, 1.0, kT0, kT0.plus_seconds(300));
  std::vector<double> latencies;
  q.drain(1.0, kT0.plus_seconds(301),
          [&](double lat, const EdgeItem&) { latencies.push_back(lat); });
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_NEAR(latencies[0], 301.0, 1e-6);
}

TEST(StationEdge, FifoWithinPriorityClass) {
  StationEdgeQueue q(8e6);  // 1 MB/s
  q.receive(1e6, 1.0, kT0, kT0.plus_seconds(10));
  q.receive(1e6, 1.0, kT0, kT0.plus_seconds(20));
  std::vector<double> rx_order;
  q.drain(2.0, kT0.plus_seconds(30), [&](double, const EdgeItem& item) {
    rx_order.push_back(item.ground_rx.seconds_since(kT0));
  });
  ASSERT_EQ(rx_order.size(), 2u);
  EXPECT_LT(rx_order[0], rx_order[1]);
}

TEST(StationEdge, RejectsBadInputs) {
  EXPECT_THROW(StationEdgeQueue(0.0), std::invalid_argument);
  StationEdgeQueue q(1e6);
  EXPECT_THROW(q.receive(-1.0, 1.0, kT0, kT0), std::invalid_argument);
  EXPECT_THROW(q.drain(-1.0, kT0, nullptr), std::invalid_argument);
}

TEST(StationEdge, SimulatorCloudLatencyBehindGroundLatency) {
  groundseg::NetworkOptions net;
  net.num_stations = 25;
  net.num_satellites = 12;
  net.seed = 5;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);

  core::SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 6.0;
  opts.station_backhaul_bps = 50e6;  // consumer uplink, below burst rate
  const core::SimulationResult r =
      core::Session(sats, stations, nullptr, opts).run_to_end();

  ASSERT_FALSE(r.cloud_latency_minutes.empty());
  // The cloud sees every chunk no earlier than the ground did.
  EXPECT_GE(r.cloud_latency_minutes.median(), r.latency_minutes.median());
  EXPECT_GE(r.cloud_latency_minutes.percentile(90.0),
            r.latency_minutes.percentile(90.0));
  // Ledger: every delivered byte is in the cloud or still at a station.
  EXPECT_GE(r.station_queued_bytes, 0.0);
  EXPECT_LE(r.station_queued_bytes, r.total_delivered_bytes + 1.0);
}

TEST(StationEdge, InfiniteBackhaulByDefault) {
  groundseg::NetworkOptions net;
  net.num_stations = 10;
  net.num_satellites = 5;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  core::SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 3.0;
  const core::SimulationResult r =
      core::Session(sats, stations, nullptr, opts).run_to_end();
  EXPECT_TRUE(r.cloud_latency_minutes.empty());
  EXPECT_DOUBLE_EQ(r.station_queued_bytes, 0.0);
}

}  // namespace
}  // namespace dgs::backend
