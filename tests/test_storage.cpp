// On-board storage limits (recorder-full drops).
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/session.h"

namespace dgs {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

TEST(StorageCapacity, TailDropWhenFull) {
  core::OnboardQueue q;
  q.set_capacity(100.0);
  q.generate(80.0, kT0);
  EXPECT_DOUBLE_EQ(q.dropped_bytes(), 0.0);
  q.generate(50.0, kT0.plus_seconds(60));
  EXPECT_DOUBLE_EQ(q.queued_bytes(), 100.0);  // only 20 fit
  EXPECT_DOUBLE_EQ(q.dropped_bytes(), 30.0);
  // Completely full: everything dropped.
  q.generate(10.0, kT0.plus_seconds(120));
  EXPECT_DOUBLE_EQ(q.dropped_bytes(), 40.0);
}

TEST(StorageCapacity, PendingAckCountsTowardCapacity) {
  // Paper §3.3: delivered-but-unacked data still occupies the recorder.
  core::OnboardQueue q;
  q.set_capacity(100.0);
  q.generate(100.0, kT0);
  q.transmit(60.0, kT0.plus_seconds(60), nullptr);
  EXPECT_DOUBLE_EQ(q.storage_bytes(), 100.0);  // 40 queued + 60 pending
  q.generate(30.0, kT0.plus_seconds(120));
  EXPECT_DOUBLE_EQ(q.dropped_bytes(), 30.0);   // nothing fits
  // Acks free the space.
  q.acknowledge_all(kT0.plus_seconds(180), nullptr);
  q.generate(30.0, kT0.plus_seconds(240));
  EXPECT_DOUBLE_EQ(q.dropped_bytes(), 30.0);   // fits now
  EXPECT_DOUBLE_EQ(q.queued_bytes(), 70.0);
}

TEST(StorageCapacity, UnlimitedByDefault) {
  core::OnboardQueue q;
  q.generate(1e15, kT0);
  EXPECT_DOUBLE_EQ(q.dropped_bytes(), 0.0);
}

TEST(StorageCapacity, RejectsNonPositiveCapacity) {
  core::OnboardQueue q;
  EXPECT_THROW(q.set_capacity(0.0), std::invalid_argument);
  EXPECT_THROW(q.set_capacity(-5.0), std::invalid_argument);
}

TEST(StorageCapacity, SimulatorAccountsDrops) {
  groundseg::NetworkOptions net;
  net.num_stations = 10;
  net.num_satellites = 6;
  net.tx_fraction = 0.0;  // one TX station; acks are rare
  auto sats = groundseg::generate_constellation(net, kT0);
  for (auto& s : sats) s.storage_capacity_bytes = 5e9;  // tiny recorder
  const auto stations = groundseg::generate_dgs_stations(net);

  core::SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 8.0;
  const core::SimulationResult r =
      core::Session(sats, stations, nullptr, opts).run_to_end();

  EXPECT_GT(r.total_dropped_bytes, 0.0);
  double generated = 0.0, delivered = 0.0, backlog = 0.0, dropped = 0.0;
  for (const auto& o : r.per_satellite) {
    generated += o.generated_bytes;
    delivered += o.delivered_bytes;
    backlog += o.backlog_bytes;
    dropped += o.dropped_bytes;
    // Storage never exceeded the recorder.
    EXPECT_LE(o.storage_high_water_bytes, 5e9 + 1.0);
  }
  // Conservation with drops: captured = delivered + queued + dropped.
  EXPECT_NEAR(generated, delivered + backlog + dropped,
              generated * 1e-9 + 1.0);
}

}  // namespace
}  // namespace dgs
