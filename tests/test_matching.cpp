// Matching algorithms: stability, optimality, determinism, edge cases, and
// randomized property sweeps.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/matching.h"
#include "src/util/rng.h"

namespace dgs::core {
namespace {

/// Unit capacities: the one-to-one (point-to-point) market.
std::vector<int> unit(int num_stations) {
  return std::vector<int>(static_cast<std::size_t>(num_stations), 1);
}

std::vector<Edge> random_graph(util::Rng& rng, int sats, int stations,
                               double density) {
  std::vector<Edge> edges;
  for (int s = 0; s < sats; ++s) {
    for (int g = 0; g < stations; ++g) {
      if (rng.uniform() < density) {
        edges.push_back(Edge{s, g, rng.uniform(0.1, 100.0)});
      }
    }
  }
  return edges;
}

bool no_duplicate_endpoints(const std::vector<Edge>& edges,
                            const Matching& m) {
  std::vector<int> sat_seen, gs_seen;
  for (int i : m) {
    for (int s : sat_seen) {
      if (s == edges[i].sat) return false;
    }
    for (int g : gs_seen) {
      if (g == edges[i].station) return false;
    }
    sat_seen.push_back(edges[i].sat);
    gs_seen.push_back(edges[i].station);
  }
  return true;
}

TEST(Matching, EmptyGraph) {
  EXPECT_TRUE(stable_matching({}, 5, unit(5)).empty());
  EXPECT_TRUE(optimal_matching({}, 5, unit(5)).empty());
  EXPECT_TRUE(greedy_matching({}, 5, unit(5)).empty());
}

TEST(Matching, SingleEdge) {
  const std::vector<Edge> edges{{0, 0, 5.0}};
  for (auto kind :
       {MatcherKind::kStable, MatcherKind::kOptimal, MatcherKind::kGreedy}) {
    const Matching m = run_matcher(kind, edges, 1, unit(1));
    ASSERT_EQ(m.size(), 1u) << matcher_name(kind);
    EXPECT_EQ(m[0], 0);
  }
}

TEST(Matching, IgnoresNonPositiveWeights) {
  const std::vector<Edge> edges{{0, 0, 0.0}, {1, 1, -3.0}, {2, 2, 1.0}};
  for (auto kind :
       {MatcherKind::kStable, MatcherKind::kOptimal, MatcherKind::kGreedy}) {
    const Matching m = run_matcher(kind, edges, 3, unit(3));
    ASSERT_EQ(m.size(), 1u) << matcher_name(kind);
    EXPECT_EQ(edges[m[0]].sat, 2);
  }
}

TEST(Matching, RejectsOutOfRangeEndpoints) {
  const std::vector<Edge> edges{{5, 0, 1.0}};
  EXPECT_THROW(stable_matching(edges, 3, unit(3)), std::invalid_argument);
  EXPECT_THROW(optimal_matching(edges, 3, unit(3)), std::invalid_argument);
  EXPECT_THROW(greedy_matching(edges, 3, unit(3)), std::invalid_argument);
}

TEST(Matching, ContentionResolvedByWeight) {
  // Two satellites want the same station; the heavier edge wins, the loser
  // takes its second choice.
  const std::vector<Edge> edges{
      {0, 0, 10.0}, {1, 0, 8.0}, {1, 1, 3.0}};
  for (auto kind :
       {MatcherKind::kStable, MatcherKind::kOptimal, MatcherKind::kGreedy}) {
    const Matching m = run_matcher(kind, edges, 2, unit(2));
    EXPECT_EQ(m.size(), 2u) << matcher_name(kind);
    EXPECT_NEAR(matching_value(edges, m), 13.0, 1e-12) << matcher_name(kind);
  }
}

TEST(Matching, StableSacrificesGlobalValueWhenNeeded) {
  // Classic instance where the stable outcome is not the max-weight one:
  //   s0-g0: 10, s0-g1: 9, s1-g0: 9.5, s1-g1: 1
  // Stable: s0 takes g0 (both prefer it) -> s1 gets g1: total 11.
  // Optimal: s0-g1 + s1-g0 = 18.5.
  const std::vector<Edge> edges{
      {0, 0, 10.0}, {0, 1, 9.0}, {1, 0, 9.5}, {1, 1, 1.0}};
  const Matching stable = stable_matching(edges, 2, unit(2));
  const Matching optimal = optimal_matching(edges, 2, unit(2));
  EXPECT_NEAR(matching_value(edges, stable), 11.0, 1e-12);
  EXPECT_NEAR(matching_value(edges, optimal), 18.5, 1e-12);
  EXPECT_TRUE(is_stable(edges, stable, 2, unit(2)));
  EXPECT_FALSE(is_stable(edges, optimal, 2, unit(2)));
}

TEST(Matching, OptimalBeatsOrTiesOthersOnRandomGraphs) {
  util::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int sats = static_cast<int>(rng.uniform_int(1, 12));
    const int stations = static_cast<int>(rng.uniform_int(1, 12));
    const auto edges = random_graph(rng, sats, stations, 0.4);
    const double w_opt =
        matching_value(edges, optimal_matching(edges, sats, unit(stations)));
    const double w_stable =
        matching_value(edges, stable_matching(edges, sats, unit(stations)));
    const double w_greedy =
        matching_value(edges, greedy_matching(edges, sats, unit(stations)));
    EXPECT_GE(w_opt, w_stable - 1e-9);
    EXPECT_GE(w_opt, w_greedy - 1e-9);
  }
}

TEST(Matching, StableMatchingsAreAlwaysStable) {
  util::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const int sats = static_cast<int>(rng.uniform_int(1, 20));
    const int stations = static_cast<int>(rng.uniform_int(1, 20));
    const auto edges = random_graph(rng, sats, stations, 0.3);
    const Matching m = stable_matching(edges, sats, unit(stations));
    EXPECT_TRUE(is_stable(edges, m, sats, unit(stations))) << "trial " << trial;
    EXPECT_TRUE(no_duplicate_endpoints(edges, m));
  }
}

TEST(Matching, GreedyEqualsStableForAlignedPreferences) {
  // With globally distinct weights and both sides ranking by weight, the
  // greedy descending-weight matching IS the unique stable matching.
  util::Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const int sats = 8, stations = 8;
    auto edges = random_graph(rng, sats, stations, 0.5);
    // Perturb to make all weights distinct.
    for (std::size_t i = 0; i < edges.size(); ++i) {
      edges[i].weight += static_cast<double>(i) * 1e-7;
    }
    const double w_stable =
        matching_value(edges, stable_matching(edges, sats, unit(stations)));
    const double w_greedy =
        matching_value(edges, greedy_matching(edges, sats, unit(stations)));
    EXPECT_NEAR(w_stable, w_greedy, 1e-9);
  }
}

TEST(Matching, AllMatchersRespectMatchingConstraint) {
  util::Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const auto edges = random_graph(rng, 15, 10, 0.5);
    for (auto kind :
         {MatcherKind::kStable, MatcherKind::kOptimal, MatcherKind::kGreedy}) {
      const Matching m = run_matcher(kind, edges, 15, unit(10));
      EXPECT_TRUE(no_duplicate_endpoints(edges, m)) << matcher_name(kind);
      EXPECT_LE(m.size(), 10u);
    }
  }
}

TEST(Matching, DenseContentionSaturatesStations) {
  // 20 satellites all see 5 stations with positive weight: every station
  // must end up busy under every matcher.
  util::Rng rng(53);
  const auto edges = random_graph(rng, 20, 5, 1.0);
  for (auto kind :
       {MatcherKind::kStable, MatcherKind::kOptimal, MatcherKind::kGreedy}) {
    EXPECT_EQ(run_matcher(kind, edges, 20, unit(5)).size(), 5u)
        << matcher_name(kind);
  }
}

TEST(Matching, DeterministicAcrossCalls) {
  util::Rng rng(61);
  const auto edges = random_graph(rng, 12, 12, 0.4);
  for (auto kind :
       {MatcherKind::kStable, MatcherKind::kOptimal, MatcherKind::kGreedy}) {
    const Matching a = run_matcher(kind, edges, 12, unit(12));
    const Matching b = run_matcher(kind, edges, 12, unit(12));
    EXPECT_EQ(a, b) << matcher_name(kind);
  }
}

TEST(Matching, OptimalHandlesParallelEdges) {
  // Duplicate (sat, station) pairs with different weights: the heavier one
  // must be used.
  const std::vector<Edge> edges{{0, 0, 1.0}, {0, 0, 7.0}};
  const Matching m = optimal_matching(edges, 1, unit(1));
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 1);
}

TEST(Matching, ValueOfEmptyMatchingIsZero) {
  EXPECT_DOUBLE_EQ(matching_value({}, {}), 0.0);
}

TEST(MatcherName, AllKindsNamed) {
  EXPECT_NE(matcher_name(MatcherKind::kStable), "");
  EXPECT_NE(matcher_name(MatcherKind::kOptimal), "");
  EXPECT_NE(matcher_name(MatcherKind::kGreedy), "");
}

}  // namespace
}  // namespace dgs::core
