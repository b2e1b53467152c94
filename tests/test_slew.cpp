// Antenna slew/re-lock accounting in the simulator.
#include <gtest/gtest.h>

#include "src/core/session.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

class SlewTest : public ::testing::Test {
 protected:
  SlewTest() {
    groundseg::NetworkOptions net;
    net.num_stations = 20;
    net.num_satellites = 30;  // contention forces station switching
    net.seed = 23;
    sats_ = groundseg::generate_constellation(net, kT0);
    stations_ = groundseg::generate_dgs_stations(net);
  }

  SimulationResult run_with_slew(double slew_s, double lookahead_h = 0.0) {
    SimulationOptions opts;
    opts.start = kT0;
    opts.duration_hours = 6.0;
    opts.slew_seconds = slew_s;
    opts.lookahead_hours = lookahead_h;
    return Session(sats_, stations_, nullptr, opts).run_to_end();
  }

  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
};

TEST_F(SlewTest, ZeroSlewCountsNoEvents) {
  const SimulationResult r = run_with_slew(0.0);
  EXPECT_EQ(r.slew_events, 0);
}

TEST_F(SlewTest, SlewEventsAppearUnderContention) {
  const SimulationResult r = run_with_slew(10.0);
  EXPECT_GT(r.slew_events, 0);
  // Every assignment can produce at most one slew event.
  EXPECT_LE(r.slew_events, r.assignments);
}

TEST_F(SlewTest, SlewReducesDeliveredVolume) {
  const SimulationResult fast = run_with_slew(0.0);
  const SimulationResult slow = run_with_slew(45.0);  // most of each quantum
  EXPECT_LT(slow.total_delivered_bytes, fast.total_delivered_bytes);
}

TEST_F(SlewTest, LookaheadSwitchesLessThanPerInstant) {
  const SimulationResult instant = run_with_slew(10.0);
  const SimulationResult planned = run_with_slew(10.0, 0.5);
  ASSERT_GT(instant.slew_events, 0);
  ASSERT_GT(planned.slew_events, 0);
  EXPECT_LT(planned.slew_events, instant.slew_events);
}

TEST_F(SlewTest, ConservationHoldsWithSlew) {
  const SimulationResult r = run_with_slew(20.0);
  double backlog = 0.0;
  for (const auto& o : r.per_satellite) backlog += o.backlog_bytes;
  EXPECT_NEAR(r.total_generated_bytes, r.total_delivered_bytes + backlog,
              r.total_generated_bytes * 1e-9 + 1.0);
}

}  // namespace
}  // namespace dgs::core
