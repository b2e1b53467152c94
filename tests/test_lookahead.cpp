// Look-ahead (time-expanded) planner: pass-block construction, step
// geometry reuse across replans, conflict-free allocation, and end-to-end
// behaviour through the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/lookahead.h"
#include "src/core/session.h"
#include "src/obs/events.h"
#include "src/weather/synthetic.h"

namespace dgs::core {
namespace {

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr double kGb = 1e9;

groundseg::NetworkOptions small_net() {
  groundseg::NetworkOptions opts;
  opts.num_stations = 25;
  opts.num_satellites = 15;
  opts.seed = 17;
  return opts;
}

class LookaheadTest : public ::testing::Test {
 protected:
  LookaheadTest()
      : sats_(groundseg::generate_constellation(small_net(), kEpoch)),
        stations_(groundseg::generate_dgs_stations(small_net())),
        engine_(sats_, stations_, nullptr) {}

  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
  VisibilityEngine engine_;
};

/// A pass block with its own edge vector: the shape the reference fusion
/// builds, and what a PassBlocks chain unrolls to.
struct RefBlock {
  int sat = 0;
  int station = 0;
  int first_step = 0;
  std::vector<ContactEdge> steps;  ///< One edge per step, contiguous.

  int last_step() const {
    return first_step + static_cast<int>(steps.size()) - 1;
  }
};

/// Pass-block fusion through a std::map of the pairs open at the previous
/// step, rebuilt every step: the oracle find_pass_blocks must reproduce
/// exactly (same blocks, same order, same edges).
std::vector<RefBlock> reference_pass_blocks(
    const VisibilityEngine& engine, const util::Epoch& start, int steps,
    double step_seconds, std::span<const char> station_down = {}) {
  std::vector<RefBlock> blocks;
  // Open block per (sat, station) pair, indexed into `blocks`.
  std::map<std::pair<int, int>, int> open;

  // The plan is computed at `start`; looking `k` steps ahead means relying
  // on a forecast with lead k*dt.
  std::vector<double> leads(engine.num_sats(), 0.0);
  for (int k = 0; k < steps; ++k) {
    const util::Epoch t = start.plus_seconds(k * step_seconds);
    std::fill(leads.begin(), leads.end(), k * step_seconds);
    const std::vector<ContactEdge> edges =
        engine.contacts(t, leads, station_down);

    std::map<std::pair<int, int>, int> still_open;
    for (const ContactEdge& e : edges) {
      const auto key = std::make_pair(e.sat, e.station);
      const auto it = open.find(key);
      if (it != open.end() && blocks[it->second].last_step() == k - 1) {
        blocks[it->second].steps.push_back(e);
        still_open[key] = it->second;
      } else {
        RefBlock b;
        b.sat = e.sat;
        b.station = e.station;
        b.first_step = k;
        b.steps.push_back(e);
        blocks.push_back(std::move(b));
        still_open[key] = static_cast<int>(blocks.size()) - 1;
      }
    }
    open = std::move(still_open);
  }
  return blocks;
}

/// The edges of `b`, walked along its chain to the end marker.
std::vector<ContactEdge> chain_of(const PassBlocks& blocks,
                                  const PassBlock& b) {
  std::vector<ContactEdge> edges;
  auto k = static_cast<std::size_t>(b.first_step);
  for (std::uint32_t i = b.first_edge; i != PassBlocks::kEnd;
       i = blocks.next.at(k++).at(i)) {
    edges.push_back(blocks.edges.at(k).at(i));
  }
  return edges;
}

/// Every block of `blocks` with its chain unrolled into a vector.
std::vector<RefBlock> unrolled(const PassBlocks& blocks) {
  std::vector<RefBlock> out;
  for (const PassBlock& b : blocks.blocks) {
    out.push_back(RefBlock{b.sat, b.station, b.first_step, chain_of(blocks, b)});
  }
  return out;
}

/// Same edges in the same order, every field equal bit for bit.
void expect_same_edges(const std::vector<ContactEdge>& a,
                       const std::vector<ContactEdge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    const ContactEdge& x = a[k];
    const ContactEdge& y = b[k];
    EXPECT_EQ(x.sat, y.sat);
    EXPECT_EQ(x.station, y.station);
    EXPECT_EQ(x.elevation_rad, y.elevation_rad);
    EXPECT_EQ(x.range_km, y.range_km);
    EXPECT_EQ(x.predicted_rate_bps, y.predicted_rate_bps);
    EXPECT_EQ(x.modcod, y.modcod);
    EXPECT_EQ(x.weight, y.weight);
  }
}

/// `a` holds the blocks of `b` in the same order: the same fields, each
/// chain the block's edges bit for bit, and each capacity equal to the
/// step-order sum of rate * dt / 8 over them.  Every edge of the window
/// lies on exactly one chain.
void expect_same_blocks(const PassBlocks& a, const std::vector<RefBlock>& b,
                        double step_seconds = 60.0) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.next.size(), a.edges.size());
  std::size_t swept = 0;
  for (std::size_t k = 0; k < a.edges.size(); ++k) {
    ASSERT_EQ(a.next[k].size(), a.edges[k].size());
    swept += a.edges[k].size();
  }
  std::size_t chained = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "block " << i);
    const PassBlock& x = a.blocks[i];
    EXPECT_EQ(x.sat, b[i].sat);
    EXPECT_EQ(x.station, b[i].station);
    EXPECT_EQ(x.first_step, b[i].first_step);
    EXPECT_EQ(x.length, static_cast<int>(b[i].steps.size()));
    const std::vector<ContactEdge> chain = chain_of(a, x);
    expect_same_edges(chain, b[i].steps);
    chained += chain.size();
    double bytes = 0.0;
    for (const ContactEdge& e : b[i].steps) {
      bytes += e.predicted_rate_bps * step_seconds / 8.0;
    }
    EXPECT_EQ(x.capacity_bytes, bytes);
  }
  EXPECT_EQ(chained, swept);
}

void expect_same_blocks(const PassBlocks& a, const PassBlocks& b) {
  expect_same_blocks(a, unrolled(b));
}

/// Every dgs_vis_* count in `counts`, by family name.
std::map<std::string, std::int64_t> vis_counters(
    const VisibilityCounts& counts) {
  std::map<std::string, std::int64_t> out;
  for_each_visibility_count(
      counts, [&out](const char* name, const char*, std::int64_t n) {
        out[name] = n;
      });
  return out;
}

/// Largest number of blocks any one (sat, station) pair has in `blocks`.
int max_blocks_per_pair(const PassBlocks& blocks) {
  std::map<std::pair<int, int>, int> count;
  int most = 0;
  for (const PassBlock& b : blocks.blocks) {
    most = std::max(most, ++count[{b.sat, b.station}]);
  }
  return most;
}

TEST_F(LookaheadTest, BlocksAreContiguousAndConsistent) {
  const int steps = 120;
  const PassBlocks blocks = find_pass_blocks(engine_, kEpoch, steps, 60.0);
  ASSERT_GT(blocks.size(), 0u);
  for (const PassBlock& b : blocks.blocks) {
    EXPECT_GE(b.first_step, 0);
    EXPECT_LT(b.last_step(), steps);
    EXPECT_GT(b.length, 0);
    const std::vector<ContactEdge> chain = chain_of(blocks, b);
    EXPECT_EQ(chain.size(), static_cast<std::size_t>(b.length));
    for (const ContactEdge& e : chain) {
      EXPECT_EQ(e.sat, b.sat);
      EXPECT_EQ(e.station, b.station);
      EXPECT_GT(e.predicted_rate_bps, 0.0);
    }
    EXPECT_GT(b.capacity_bytes, 0.0);
  }
}

TEST_F(LookaheadTest, BlocksCoverExactlyTheVisibleEdges) {
  // The union of block steps equals the per-instant contact sets.
  const int steps = 60;
  const PassBlocks blocks = find_pass_blocks(engine_, kEpoch, steps, 60.0);
  std::map<int, std::set<std::pair<int, int>>> from_blocks;
  for (const PassBlock& b : blocks.blocks) {
    for (int k = b.first_step; k <= b.last_step(); ++k) {
      EXPECT_TRUE(from_blocks[k].insert({b.sat, b.station}).second)
          << "duplicate pair in blocks at step " << k;
    }
  }
  std::vector<double> leads(engine_.num_sats(), 0.0);
  for (int k = 0; k < steps; ++k) {
    std::fill(leads.begin(), leads.end(), k * 60.0);
    const auto edges =
        engine_.contacts(kEpoch.plus_seconds(k * 60.0), leads);
    std::set<std::pair<int, int>> direct;
    for (const ContactEdge& e : edges) direct.insert({e.sat, e.station});
    EXPECT_EQ(from_blocks[k], direct) << "step " << k;
  }
}

TEST_F(LookaheadTest, PassBlockDurationsAreLeoTypical) {
  const PassBlocks blocks = find_pass_blocks(engine_, kEpoch, 24 * 60, 60.0);
  util::SampleSet durations_min;
  for (const PassBlock& b : blocks.blocks) {
    durations_min.add(static_cast<double>(b.length));
  }
  // Above amateur masks, pass blocks run a few minutes; none exceed ~15.
  EXPECT_LE(durations_min.max(), 15.0);
  EXPECT_GE(durations_min.median(), 2.0);
}

TEST_F(LookaheadTest, FusionMatchesMapReferenceClearSky) {
  for (const int steps : {60, 180}) {
    SCOPED_TRACE(::testing::Message() << steps << " steps");
    const PassBlocks blocks = find_pass_blocks(engine_, kEpoch, steps, 60.0);
    expect_same_blocks(blocks,
                       reference_pass_blocks(engine_, kEpoch, steps, 60.0));
    // Within three hours some pair is seen, lost and seen again, so the
    // comparison covers a second block for one pair, not only extensions.
    if (steps == 180) {
      EXPECT_GE(max_blocks_per_pair(blocks), 2);
    }
  }
}

TEST_F(LookaheadTest, FusionMatchesMapReferenceWithWeather) {
  const weather::SyntheticWeatherProvider wx(13, kEpoch, 4.0);
  const VisibilityEngine engine(sats_, stations_, &wx);
  for (const int steps : {60, 180}) {
    SCOPED_TRACE(::testing::Message() << steps << " steps");
    expect_same_blocks(find_pass_blocks(engine, kEpoch, steps, 60.0),
                       reference_pass_blocks(engine, kEpoch, steps, 60.0));
  }
}

TEST_F(LookaheadTest, FusionMatchesMapReferenceWithStationsDown) {
  const weather::SyntheticWeatherProvider wx(13, kEpoch, 4.0);
  const VisibilityEngine engine(sats_, stations_, &wx);
  std::vector<char> down(stations_.size(), 0);
  for (std::size_t g = 0; g < down.size(); g += 3) down[g] = 1;
  for (const int steps : {60, 180}) {
    SCOPED_TRACE(::testing::Message() << steps << " steps");
    const PassBlocks blocks =
        find_pass_blocks(engine, kEpoch, steps, 60.0, down);
    expect_same_blocks(blocks,
                       reference_pass_blocks(engine, kEpoch, steps, 60.0,
                                             down));
    for (const PassBlock& b : blocks.blocks) EXPECT_FALSE(down[b.station]);
  }
}

// A pair seen, lost and seen again gets two blocks whose chains stay
// apart: the first ends at kEnd after its last step, the second starts a
// new chain that no edge links into.  A station down for the window
// stores no edges at all.  Clear sky and weather, each with and without
// a third of the stations down.
TEST_F(LookaheadTest, ChainsEndAtEachPassAndSkipStationsDown) {
  const weather::SyntheticWeatherProvider wx(13, kEpoch, 4.0);
  std::vector<char> down(stations_.size(), 0);
  for (std::size_t g = 1; g < down.size(); g += 3) down[g] = 1;
  for (const bool weather : {false, true}) {
    for (const bool with_down : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (weather ? "weather" : "clear sky")
                   << (with_down ? ", stations down" : ""));
      const VisibilityEngine engine(sats_, stations_,
                                    weather ? &wx : nullptr);
      const std::span<const char> mask =
          with_down ? std::span<const char>(down) : std::span<const char>();
      const PassBlocks blocks =
          find_pass_blocks(engine, kEpoch, 180, 60.0, mask);
      expect_same_blocks(blocks,
                         reference_pass_blocks(engine, kEpoch, 180, 60.0,
                                               mask));
      // Edges linked into from the previous step.
      std::set<std::pair<std::size_t, std::uint32_t>> linked;
      for (std::size_t k = 0; k < blocks.next.size(); ++k) {
        for (const std::uint32_t i : blocks.next[k]) {
          if (i != PassBlocks::kEnd) linked.insert({k + 1, i});
        }
        for (const ContactEdge& e : blocks.edges[k]) {
          EXPECT_FALSE(with_down && down[e.station]) << "step " << k;
        }
      }
      std::map<std::pair<int, int>, const PassBlock*> previous;
      int second_passes = 0;
      for (const PassBlock& b : blocks.blocks) {
        const auto first = static_cast<std::size_t>(b.first_step);
        EXPECT_FALSE(linked.contains({first, b.first_edge}));
        const PassBlock*& before = previous[{b.sat, b.station}];
        if (before != nullptr) {
          ++second_passes;
          EXPECT_GT(b.first_step, before->last_step() + 1);
          // The earlier pass's chain ends at its own last step.
          std::uint32_t i = before->first_edge;
          for (int k = before->first_step; k < before->last_step(); ++k) {
            i = blocks.next[static_cast<std::size_t>(k)][i];
          }
          EXPECT_EQ(
              blocks.next[static_cast<std::size_t>(before->last_step())][i],
              PassBlocks::kEnd);
        }
        before = &b;
      }
      EXPECT_GT(second_passes, 0);
    }
  }
}

TEST_F(LookaheadTest, FusionIsIndependentOfThreadPool) {
  const weather::SyntheticWeatherProvider wx(13, kEpoch, 4.0);
  const VisibilityEngine serial(sats_, stations_, &wx);
  VisibilityEngine threaded(sats_, stations_, &wx);
  util::ThreadPool pool(
      util::ParallelConfig{.num_threads = 4, .chunk_size = 2});
  threaded.set_thread_pool(&pool);
  expect_same_blocks(find_pass_blocks(threaded, kEpoch, 180, 60.0),
                     find_pass_blocks(serial, kEpoch, 180, 60.0));
}

// Window origins of a storm session's replans over 120 one-minute steps:
// each window starts at clock.step_start(origin), as Session forms it.
constexpr int kReplanOrigins[] = {0,  5,  9,  16, 20, 27, 33, 40, 41, 48,
                                  55, 60, 66, 71, 77, 85, 90, 99, 105};
constexpr int kSessionSteps = 120;
constexpr int kWindowSteps = 60;

// One PlanGeometry driven through the replan sequence must give what cold
// per-call windows give: every block and edge bit for bit, and every
// dgs_vis_* counter, under clear sky and weather, with and without a
// station down, at 1 and 4 lanes.
TEST_F(LookaheadTest, PlanGeometryReplansMatchColdWindows) {
  const weather::SyntheticWeatherProvider wx(13, kEpoch, 4.0);
  const obs::StepClock clock(kEpoch, 60.0);
  for (const bool weather : {false, true}) {
    for (const int lanes : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << (weather ? "weather" : "clear sky") << ", " << lanes
                   << " lanes");
      util::ThreadPool pool(
          util::ParallelConfig{.num_threads = lanes, .chunk_size = 2});
      VisibilityCounts cold_counts;
      VisibilityCounts warm_counts;
      VisibilityEngine cold(sats_, stations_, weather ? &wx : nullptr);
      VisibilityEngine warm(sats_, stations_, weather ? &wx : nullptr);
      cold.set_thread_pool(&pool);
      warm.set_thread_pool(&pool);
      cold.set_counts(&cold_counts);
      warm.set_counts(&warm_counts);
      PlanGeometry table(kWindowSteps);
      for (std::size_t w = 0; w < std::size(kReplanOrigins); ++w) {
        const int origin = kReplanOrigins[w];
        SCOPED_TRACE(::testing::Message() << "origin " << origin);
        const int steps = std::min(kWindowSteps, kSessionSteps - origin);
        // Every other window plans around a station down, a different one
        // each time: the mask is no part of the reused geometry.
        std::vector<char> down;
        if (w % 2 == 1) {
          down.assign(stations_.size(), 0);
          down[static_cast<std::size_t>(origin) % down.size()] = 1;
        }
        const util::Epoch start = clock.step_start(origin);
        expect_same_blocks(
            find_pass_blocks(warm, start, steps, 60.0, down, &table),
            find_pass_blocks(cold, start, steps, 60.0, down));
      }
      EXPECT_GT(table.hits(), 0);
      EXPECT_LT(table.hits(), table.lookups());
      const std::map<std::string, std::int64_t> counters =
          vis_counters(cold_counts);
      EXPECT_EQ(counters.size(), 5u);
      EXPECT_GT(counters.at("dgs_vis_cull_candidates_total"), 0);
      EXPECT_EQ(vis_counters(warm_counts), counters);
    }
  }
}

// step_start(1) + 22 min and step_start(23) compare equal as epochs but
// differ in their bits, and so in their geometry: the table must store
// one, miss the other, and answer each with its own epoch's edges.
TEST_F(LookaheadTest, PlanGeometryKeysOnEpochBitsNotOperatorEquals) {
  const obs::StepClock clock(kEpoch, 60.0);
  const util::Epoch replan = clock.step_start(1).plus_seconds(1320.0);
  const util::Epoch grid = clock.step_start(23);
  ASSERT_TRUE(replan == grid);
  ASSERT_FALSE(replan.bits() == grid.bits());
  const weather::SyntheticWeatherProvider wx(13, kEpoch, 4.0);
  const VisibilityEngine engine(sats_, stations_, &wx);
  const std::vector<util::Vec3> replan_ecef = engine.geometry(replan).sat_ecef;
  ASSERT_NE(engine.geometry(grid).sat_ecef, replan_ecef);

  PlanGeometry table(kWindowSteps);
  const auto lookup = [&](const util::Epoch& t) {
    return table.contacts(engine, t, 60.0, {}, {});
  };
  expect_same_edges(lookup(replan), engine.contacts(replan));
  expect_same_edges(lookup(grid), engine.contacts(grid));
  EXPECT_EQ(table.hits(), 0);
  expect_same_edges(lookup(grid), engine.contacts(grid));
  EXPECT_EQ(table.hits(), 1);
  EXPECT_EQ(table.lookups(), 3);
}

TEST_F(LookaheadTest, PlanRespectsMatchingConstraints) {
  std::vector<OnboardQueue> queues(sats_.size());
  for (auto& q : queues) q.generate(50.0 * kGb, kEpoch.plus_seconds(-3600));
  LatencyValue phi;
  const int steps = 180;
  const HorizonPlan plan =
      plan_horizon(engine_, queues, phi, kEpoch, steps, 60.0);
  ASSERT_EQ(plan.per_step.size(), static_cast<std::size_t>(steps));
  for (const auto& assignments : plan.per_step) {
    std::set<int> sats, stations;
    for (const ContactEdge& e : assignments) {
      EXPECT_TRUE(sats.insert(e.sat).second);
      EXPECT_TRUE(stations.insert(e.station).second);
    }
  }
}

TEST_F(LookaheadTest, EmptyQueuesPlanNothing) {
  std::vector<OnboardQueue> queues(sats_.size());
  LatencyValue phi;
  const HorizonPlan plan =
      plan_horizon(engine_, queues, phi, kEpoch, 60, 60.0);
  for (const auto& assignments : plan.per_step) {
    EXPECT_TRUE(assignments.empty());
  }
}

TEST_F(LookaheadTest, SatelliteHoldsStationAcrossWholePass) {
  // The distinguishing behaviour vs per-instant matching: once allocated,
  // a (sat, station) pairing persists for the full block.
  std::vector<OnboardQueue> queues(sats_.size());
  for (auto& q : queues) q.generate(50.0 * kGb, kEpoch.plus_seconds(-3600));
  LatencyValue phi;
  const HorizonPlan plan =
      plan_horizon(engine_, queues, phi, kEpoch, 180, 60.0);
  // Count switches: a satellite changing station between adjacent steps
  // while remaining scheduled.
  int transitions = 0, continuations = 0;
  for (std::size_t k = 1; k < plan.per_step.size(); ++k) {
    for (const ContactEdge& cur : plan.per_step[k]) {
      for (const ContactEdge& prev : plan.per_step[k - 1]) {
        if (prev.sat != cur.sat) continue;
        if (prev.station == cur.station) {
          ++continuations;
        } else {
          ++transitions;
        }
      }
    }
  }
  // Mid-pass handoffs can only happen at block boundaries, so
  // continuations must dominate.
  EXPECT_GT(continuations, 5 * std::max(1, transitions));
}

TEST_F(LookaheadTest, RejectsBadArguments) {
  std::vector<OnboardQueue> queues(sats_.size());
  LatencyValue phi;
  EXPECT_THROW(find_pass_blocks(engine_, kEpoch, 0, 60.0),
               std::invalid_argument);
  EXPECT_THROW(find_pass_blocks(engine_, kEpoch, 10, 0.0),
               std::invalid_argument);
  std::vector<OnboardQueue> wrong(3);
  EXPECT_THROW(plan_horizon(engine_, wrong, phi, kEpoch, 10, 60.0),
               std::invalid_argument);
  EXPECT_THROW(PlanGeometry(0), std::invalid_argument);
  PlanGeometry table(4);
  EXPECT_THROW(table.contacts(engine_, kEpoch, 0.0, {}, {}),
               std::invalid_argument);
  table.contacts(engine_, kEpoch, 60.0, {}, {});
  // Another engine's instants could share this one's epoch bits.
  const VisibilityEngine other(sats_, stations_, nullptr);
  EXPECT_THROW(table.contacts(other, kEpoch, 60.0, {}, {}),
               std::invalid_argument);
}

TEST_F(LookaheadTest, SimulatorIntegrationConservesBytes) {
  SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 6.0;
  opts.step_seconds = 60.0;
  opts.lookahead_hours = 1.0;
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  double backlog = 0.0;
  for (const auto& o : r.per_satellite) backlog += o.backlog_bytes;
  EXPECT_NEAR(r.total_generated_bytes, r.total_delivered_bytes + backlog,
              r.total_generated_bytes * 1e-9 + 1.0);
}

TEST_F(LookaheadTest, SimulatorAcceptsLookaheadWithOutages) {
  // Previously rejected (the planner could not replan on failures); the
  // fault subsystem lifted the restriction — the combined config must run
  // and still conserve bytes.
  SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 2.0;
  opts.lookahead_hours = 1.0;
  opts.faults.outages.push_back(faults::OutageWindow{0, 0.0, 1.0});
  Session sim(sats_, stations_, nullptr, opts);
  const SimulationResult r = sim.run_to_end();
  EXPECT_GT(r.total_delivered_bytes, 0.0);
  // generated == delivered + still-queued + (wasted - requeued): every
  // byte is delivered, on board, or in limbo awaiting its collated
  // report (delivered+wasted-requeued == acked+pending, see the
  // simulator's whole-run conservation audit).
  double backlog = 0.0;
  for (const auto& o : r.per_satellite) backlog += o.backlog_bytes;
  EXPECT_NEAR(r.total_generated_bytes,
              r.total_delivered_bytes + backlog +
                  r.wasted_transmission_bytes - r.requeued_bytes,
              r.total_generated_bytes * 1e-9 + 1.0);
}

TEST_F(LookaheadTest, SimulatorRejectsNegativeLookahead) {
  SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 2.0;
  opts.lookahead_hours = -1.0;
  EXPECT_THROW(Session(sats_, stations_, nullptr, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace dgs::core
