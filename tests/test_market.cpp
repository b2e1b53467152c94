// Bidding market: multiplier resolution, the value_scale table and its
// validation, and scheduler/station-time effects.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/market.h"
#include "src/core/report.h"
#include "src/core/session.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

TEST(BidMatrix, DefaultsToUnity) {
  BidMatrix bids({0, 0, 1});
  EXPECT_DOUBLE_EQ(bids.multiplier(0, 5), 1.0);
  EXPECT_DOUBLE_EQ(bids.multiplier(2, 0), 1.0);
}

TEST(BidMatrix, StationBidOverridesDefaultBid) {
  BidMatrix bids({0, 1});
  bids.set_default_bid(1, 2.0);
  bids.set_bid(1, 7, 5.0);
  EXPECT_DOUBLE_EQ(bids.multiplier(1, 3), 2.0);   // default
  EXPECT_DOUBLE_EQ(bids.multiplier(1, 7), 5.0);   // station-specific
  EXPECT_DOUBLE_EQ(bids.multiplier(0, 7), 1.0);   // other operator
}

TEST(BidMatrix, RejectsBadInputs) {
  EXPECT_THROW(BidMatrix({}), std::invalid_argument);
  BidMatrix bids({0});
  EXPECT_THROW(bids.set_bid(0, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(bids.set_default_bid(0, -1.0), std::invalid_argument);
}

TEST(BidMatrix, ValueScaleTableHoldsMultipliers) {
  BidMatrix bids({0, 1, 1});
  bids.set_default_bid(1, 3.0);
  bids.set_bid(1, 2, 5.0);
  const std::vector<double> table = bids.value_scale(4);
  ASSERT_EQ(table.size(), 3u * 4u);
  for (int s = 0; s < 3; ++s) {
    for (int g = 0; g < 4; ++g) {
      EXPECT_EQ(table[static_cast<std::size_t>(s * 4 + g)],
                bids.multiplier(s, g))
          << "sat " << s << " station " << g;
    }
  }
  EXPECT_EQ(table[0], 1.0);       // operator 0, no bid
  EXPECT_EQ(table[4 + 1], 3.0);   // operator 1 default
  EXPECT_EQ(table[8 + 2], 5.0);   // operator 1 at station 2
  EXPECT_THROW(bids.value_scale(0), std::invalid_argument);
}

SimulationOptions bid_options(std::size_t cells) {
  SimulationOptions o;
  o.start = kT0;
  o.duration_hours = 6.0;
  o.value_scale.assign(cells, 1.0);
  return o;
}

TEST(ValueScale, ValidateAcceptsAFullPositiveTable) {
  EXPECT_FALSE(bid_options(6).validate(3, {}, 2).has_value());
  // The size check needs both counts; either one unknown skips it.
  EXPECT_FALSE(bid_options(5).validate(-1, {}, 2).has_value());
  EXPECT_FALSE(bid_options(5).validate(3, {}, -1).has_value());
}

TEST(ValueScale, ValidateRejectsAWrongSize) {
  for (const std::size_t cells : {std::size_t{5}, std::size_t{7}}) {
    const auto e = bid_options(cells).validate(3, {}, 2);
    ASSERT_TRUE(e.has_value()) << cells;
    EXPECT_EQ(e->field, "value_scale");
  }
}

TEST(ValueScale, ValidateRejectsNonFiniteAndNonPositiveEntries) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0.0, -0.0,
        -2.0}) {
    SimulationOptions o = bid_options(6);
    o.value_scale[4] = bad;
    const auto e = o.validate(3, {}, 2);
    ASSERT_TRUE(e.has_value()) << bad;
    EXPECT_EQ(e->field, "value_scale[4]") << bad;
  }
}

TEST(ValueScale, ValidateRejectsATableWithLookahead) {
  SimulationOptions o = bid_options(6);
  o.lookahead_hours = 1.0;
  const auto e = o.validate(3, {}, 2);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "value_scale");
  o.value_scale.clear();
  EXPECT_FALSE(o.validate(3, {}, 2).has_value());
}

TEST(Market, HigherBidderWinsContestedStations) {
  // Two operators with identical fleets; operator 1 bids 4x everywhere.
  groundseg::NetworkOptions net;
  net.num_stations = 8;   // scarce stations => real contention
  net.num_satellites = 24;
  net.seed = 29;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);

  std::vector<int> operator_of(sats.size());
  for (std::size_t s = 0; s < sats.size(); ++s) {
    operator_of[s] = s % 2;  // interleaved so orbits are comparable
  }
  BidMatrix bids(operator_of);
  bids.set_default_bid(1, 4.0);

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 8.0;
  opts.value_scale = bids.value_scale(static_cast<int>(stations.size()));
  const SimulationResult r =
      Session(sats, stations, nullptr, opts).run_to_end();

  double delivered[2] = {0.0, 0.0};
  for (std::size_t s = 0; s < sats.size(); ++s) {
    delivered[operator_of[s]] += r.per_satellite[s].delivered_bytes;
  }
  EXPECT_GT(delivered[1], delivered[0] * 1.05)
      << "the 4x bidder should move measurably more data";
}

std::string summary_bytes(const SimulationResult& r) {
  std::ostringstream out;
  write_summary_json(out, r);
  return out.str();
}

TEST(Market, UnitBidsChangeNothing) {
  groundseg::NetworkOptions net;
  net.num_stations = 12;
  net.num_satellites = 10;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  BidMatrix bids(std::vector<int>(sats.size(), 0));

  SimulationOptions plain;
  plain.start = kT0;
  plain.duration_hours = 4.0;
  SimulationOptions with_bids = plain;
  with_bids.value_scale =
      bids.value_scale(static_cast<int>(stations.size()));

  const SimulationResult a =
      Session(sats, stations, nullptr, plain).run_to_end();
  const SimulationResult b =
      Session(sats, stations, nullptr, with_bids).run_to_end();
  EXPECT_EQ(summary_bytes(a), summary_bytes(b));
}

// Bid weighting runs on the thread pool like the rest of schedule_instant,
// so a bids run must be byte-identical at any thread count.
TEST(Market, BidsRunIsByteIdenticalAcrossThreadCounts) {
  groundseg::NetworkOptions net;
  net.num_stations = 8;
  net.num_satellites = 24;
  net.seed = 29;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  std::vector<int> operator_of(sats.size());
  for (std::size_t s = 0; s < sats.size(); ++s) {
    operator_of[s] = static_cast<int>(s % 3);
  }
  BidMatrix bids(operator_of);
  bids.set_default_bid(1, 2.5);
  bids.set_bid(2, 3, 6.0);

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 6.0;
  opts.value_scale = bids.value_scale(static_cast<int>(stations.size()));
  opts.parallel.chunk_size = 2;  // several chunks per weigh loop
  std::string serial;
  for (const int threads : {1, 4}) {
    opts.parallel.num_threads = threads;
    const std::string bytes = summary_bytes(
        Session(sats, stations, nullptr, opts).run_to_end());
    if (threads == 1) {
      serial = bytes;
    } else {
      EXPECT_EQ(bytes, serial) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dgs::core
