// The "missing pieces" retransmission loop (paper §3, §3.3): transmissions
// into a dead link waste the slot, sit in limbo, and are re-queued by the
// collated report at the next transmit-capable contact.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/data_queue.h"
#include "src/core/session.h"
#include "src/weather/synthetic.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

TEST(Retransmit, FailedTransmissionEntersLimbo) {
  OnboardQueue q;
  q.generate(100.0, kT0);
  int deliveries = 0;
  const double sent = q.transmit(
      60.0, kT0.plus_seconds(60),
      [&](double, const DataChunk&) { ++deliveries; },
      /*received=*/false);
  EXPECT_DOUBLE_EQ(sent, 60.0);
  EXPECT_EQ(deliveries, 0);  // ground captured nothing
  EXPECT_DOUBLE_EQ(q.queued_bytes(), 40.0);
  EXPECT_DOUBLE_EQ(q.pending_ack_bytes(), 60.0);
  EXPECT_DOUBLE_EQ(q.storage_bytes(), 100.0);  // limbo still occupies storage
}

TEST(Retransmit, CollatedReportRequeuesMissingPieces) {
  OnboardQueue q;
  q.generate(100.0, kT0);
  q.transmit(60.0, kT0.plus_seconds(60), nullptr, /*received=*/false);

  int acks = 0;
  const double requeued = q.acknowledge_all(
      kT0.plus_seconds(600), [&](double, double) { ++acks; });
  EXPECT_EQ(acks, 0);  // nothing to positively acknowledge
  EXPECT_DOUBLE_EQ(requeued, 60.0);
  EXPECT_DOUBLE_EQ(q.queued_bytes(), 100.0);  // back in the queue
  EXPECT_DOUBLE_EQ(q.pending_ack_bytes(), 0.0);
}

TEST(Retransmit, RequeuedDataKeepsOriginalCaptureTime) {
  OnboardQueue q;
  q.generate(50.0, kT0);
  q.transmit(50.0, kT0.plus_seconds(60), nullptr, /*received=*/false);
  q.acknowledge_all(kT0.plus_seconds(600), nullptr);

  // Retransmit successfully much later: latency must span from the
  // ORIGINAL capture, not the retransmission.
  std::vector<double> latencies;
  q.transmit(50.0, kT0.plus_seconds(1200),
             [&](double lat, const DataChunk&) { latencies.push_back(lat); });
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_NEAR(latencies[0], 1200.0, 1e-6);
}

TEST(Retransmit, RequeueRestoresPriorityOrder) {
  OnboardQueue q;
  q.generate(10.0, kT0, 8.0);  // urgent
  q.transmit(10.0, kT0.plus_seconds(60), nullptr, /*received=*/false);
  q.generate(10.0, kT0.plus_seconds(120), 1.0);  // bulk arrives meanwhile
  q.acknowledge_all(kT0.plus_seconds(180), nullptr);
  // The re-queued urgent piece must be served before the bulk chunk.
  std::vector<double> order;
  q.transmit(20.0, kT0.plus_seconds(240),
             [&](double, const DataChunk& c) { order.push_back(c.priority); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_DOUBLE_EQ(order[0], 8.0);
  EXPECT_DOUBLE_EQ(order[1], 1.0);
}

TEST(Retransmit, MixedBatchesSplitCorrectly) {
  OnboardQueue q;
  q.generate(100.0, kT0);
  q.transmit(30.0, kT0.plus_seconds(60), nullptr, /*received=*/true);
  q.transmit(20.0, kT0.plus_seconds(120), nullptr, /*received=*/false);
  q.transmit(10.0, kT0.plus_seconds(180), nullptr, /*received=*/true);

  std::vector<double> acked;
  const double requeued = q.acknowledge_all(
      kT0.plus_seconds(600), [&](double, double bytes) {
        acked.push_back(bytes);
      });
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_DOUBLE_EQ(acked[0] + acked[1], 40.0);
  EXPECT_DOUBLE_EQ(requeued, 20.0);
  EXPECT_DOUBLE_EQ(q.queued_bytes(), 40.0 + 20.0);  // untouched + requeued
}

TEST(Retransmit, SimulatorAccountsWasteAndRequeue) {
  // Weather-blind scheduling under real weather must produce failed slots
  // whose bytes are wasted, then requeued, then eventually delivered —
  // with total conservation.
  groundseg::NetworkOptions net;
  net.num_stations = 40;
  net.num_satellites = 25;
  net.tx_fraction = 0.2;
  net.seed = 77;
  auto sats = groundseg::generate_constellation(net, kT0);
  for (auto& s : sats) s.radio.frequency_hz = 14.0e9;  // weather-sensitive
  const auto stations = groundseg::generate_dgs_stations(net);
  weather::SyntheticWeatherProvider wx(31337, kT0, 13.0);

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 12.0;
  opts.weather_aware = false;  // guarantee mis-predictions
  const SimulationResult r = Session(sats, stations, &wx, opts).run_to_end();

  EXPECT_GT(r.failed_assignments, 0);
  EXPECT_GT(r.wasted_transmission_bytes, 0.0);
  // Conservation: captured = delivered + queued + limbo (per-satellite
  // pending includes unreported limbo bytes).
  double generated = 0.0, delivered = 0.0, queued = 0.0, pending = 0.0;
  for (const auto& o : r.per_satellite) {
    generated += o.generated_bytes;
    delivered += o.delivered_bytes;
    queued += o.backlog_bytes;
    pending += o.pending_ack_bytes;
  }
  // Delivered bytes are acked-or-awaiting-ack but NOT in limbo; limbo is
  // inside `pending`.  delivered-pending overlap makes exact partitioning
  // awkward, so check the loose invariant and the strict byte ledger:
  // generated >= delivered + queued (requeues never duplicate bytes).
  EXPECT_GE(generated + 1.0, delivered + queued);
  // And requeued bytes were all previously wasted.
  EXPECT_LE(r.requeued_bytes, r.wasted_transmission_bytes + 1.0);
}

}  // namespace
}  // namespace dgs::core
