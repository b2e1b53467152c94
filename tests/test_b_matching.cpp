// Capacitated (beamforming) matching: hospitals/residents-style stability,
// capacity enforcement, and index-exact degeneration to the 1:1 case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "src/core/matching.h"
#include "src/util/rng.h"

namespace dgs::core {
namespace {

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

bool respects_capacities(const std::vector<Edge>& edges, const Matching& m,
                         int num_sats, const std::vector<int>& caps) {
  std::vector<int> sat_ct(num_sats, 0), gs_ct(caps.size(), 0);
  for (int i : m) {
    sat_ct[edges[i].sat] += 1;
    gs_ct[edges[i].station] += 1;
  }
  for (int c : sat_ct) {
    if (c > 1) return false;
  }
  for (std::size_t g = 0; g < caps.size(); ++g) {
    if (gs_ct[g] > caps[g]) return false;
  }
  return true;
}

// Frozen copies of the one-to-one Gale-Shapley and greedy loops that ran
// every per-instant schedule before the matchers took capacities.  At unit
// capacities the capacitated matchers must return these exact index
// vectors, not just matchings of equal value.
bool frozen_prefers(double w_new, int idx_new, double w_old, int idx_old) {
  if (w_new != w_old) return w_new > w_old;
  return idx_new < idx_old;
}

Matching frozen_stable(const std::vector<Edge>& edges, int num_sats,
                       int num_stations) {
  std::vector<std::vector<int>> prefs(num_sats);
  for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
    if (edges[i].weight > 0.0) prefs[edges[i].sat].push_back(i);
  }
  for (auto& list : prefs) {
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      return frozen_prefers(edges[a].weight, edges[a].station,
                            edges[b].weight, edges[b].station);
    });
  }
  std::vector<int> next_proposal(num_sats, 0);
  std::vector<int> station_edge(num_stations, -1);
  std::vector<int> free_sats;
  for (int s = 0; s < num_sats; ++s) {
    if (!prefs[s].empty()) free_sats.push_back(s);
  }
  while (!free_sats.empty()) {
    const int s = free_sats.back();
    free_sats.pop_back();
    while (next_proposal[s] < static_cast<int>(prefs[s].size())) {
      const int ei = prefs[s][next_proposal[s]++];
      const int g = edges[ei].station;
      const int held = station_edge[g];
      if (held == -1) {
        station_edge[g] = ei;
        break;
      }
      if (frozen_prefers(edges[ei].weight, s, edges[held].weight,
                         edges[held].sat)) {
        station_edge[g] = ei;
        free_sats.push_back(edges[held].sat);
        break;
      }
    }
  }
  Matching m;
  for (int g = 0; g < num_stations; ++g) {
    if (station_edge[g] != -1) m.push_back(station_edge[g]);
  }
  return m;
}

Matching frozen_greedy(const std::vector<Edge>& edges, int num_sats,
                       int num_stations) {
  std::vector<int> order;
  for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
    if (edges[i].weight > 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (edges[a].weight != edges[b].weight) {
      return edges[a].weight > edges[b].weight;
    }
    if (edges[a].sat != edges[b].sat) return edges[a].sat < edges[b].sat;
    return edges[a].station < edges[b].station;
  });
  std::vector<char> sat_used(num_sats, 0), gs_used(num_stations, 0);
  Matching m;
  for (int i : order) {
    if (sat_used[edges[i].sat] || gs_used[edges[i].station]) continue;
    sat_used[edges[i].sat] = 1;
    gs_used[edges[i].station] = 1;
    m.push_back(i);
  }
  return m;
}

/// Random graph with tied weights (a handful of integer levels), zero and
/// negative weights, and duplicate satellite-station edges.
std::vector<Edge> tie_heavy_graph(util::Rng& rng, int sats, int stations) {
  std::vector<Edge> edges;
  const auto n = rng.uniform_int(0, 3 * static_cast<std::int64_t>(sats));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto sat = static_cast<int>(rng.uniform_int(0, sats - 1));
    const auto station = static_cast<int>(rng.uniform_int(0, stations - 1));
    const auto weight = static_cast<double>(rng.uniform_int(-1, 4));
    edges.push_back(Edge{sat, station, weight});
    if (rng.uniform() < 0.2) edges.push_back(edges.back());  // duplicate
  }
  return edges;
}

TEST(BMatching, UnitCapacitiesReproduceOneToOneIndices) {
  util::Rng rng(29);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto sats = static_cast<int>(rng.uniform_int(1, 12));
    const auto stations = static_cast<int>(rng.uniform_int(1, 9));
    const auto edges = tie_heavy_graph(rng, sats, stations);
    const std::vector<int> caps(static_cast<std::size_t>(stations), 1);
    ASSERT_EQ(stable_matching(edges, sats, caps),
              frozen_stable(edges, sats, stations))
        << "trial " << trial;
    ASSERT_EQ(greedy_matching(edges, sats, caps),
              frozen_greedy(edges, sats, stations))
        << "trial " << trial;
  }
}

TEST(BMatching, CapacityIsEnforced) {
  util::Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const auto edges = random_graph(rng, 20, 5, 0.6);
    std::vector<int> caps{3, 1, 2, 0, 4};
    const Matching ms = stable_matching(edges, 20, caps);
    const Matching mg = greedy_matching(edges, 20, caps);
    EXPECT_TRUE(respects_capacities(edges, ms, 20, caps));
    EXPECT_TRUE(respects_capacities(edges, mg, 20, caps));
    // Zero-capacity station 3 must never appear.
    for (int i : ms) EXPECT_NE(edges[i].station, 3);
    for (int i : mg) EXPECT_NE(edges[i].station, 3);
  }
}

TEST(BMatching, StableOutputsAreStable) {
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const int sats = static_cast<int>(rng.uniform_int(2, 25));
    const int stations = static_cast<int>(rng.uniform_int(1, 8));
    const auto edges = random_graph(rng, sats, stations, 0.5);
    std::vector<int> caps(stations);
    for (auto& c : caps) c = static_cast<int>(rng.uniform_int(0, 4));
    const Matching m = stable_matching(edges, sats, caps);
    EXPECT_TRUE(respects_capacities(edges, m, sats, caps));
    EXPECT_TRUE(is_stable(edges, m, sats, caps))
        << "trial " << trial;
  }
}

TEST(BMatching, MoreBeamsServeMoreSatellites) {
  // 6 satellites all see one station.
  std::vector<Edge> edges;
  for (int s = 0; s < 6; ++s) edges.push_back(Edge{s, 0, 10.0 + s});
  EXPECT_EQ(stable_matching(edges, 6, {1}).size(), 1u);
  EXPECT_EQ(stable_matching(edges, 6, {3}).size(), 3u);
  EXPECT_EQ(stable_matching(edges, 6, {10}).size(), 6u);
  // The 3-beam station keeps the three heaviest edges.
  double total = matching_value(edges, stable_matching(edges, 6, {3}));
  EXPECT_NEAR(total, 15.0 + 14.0 + 13.0, 1e-12);
}

TEST(BMatching, DisplacedSatelliteFindsSecondChoice) {
  // s0 and s1 both prefer g0 (cap 1); s1 is better there; s0 must settle
  // for g1 even though it proposed to g0 first.
  const std::vector<Edge> edges{
      {0, 0, 5.0}, {1, 0, 9.0}, {0, 1, 2.0}};
  const Matching m = stable_matching(edges, 2, {1, 1});
  double total = matching_value(edges, m);
  EXPECT_NEAR(total, 11.0, 1e-12);
  EXPECT_EQ(m.size(), 2u);
}

TEST(BMatching, GreedyNeverBeatsItsOwnCapacityBound) {
  util::Rng rng(21);
  const auto edges = random_graph(rng, 30, 6, 0.7);
  const std::vector<int> caps{2, 2, 2, 2, 2, 2};
  const Matching m = greedy_matching(edges, 30, caps);
  EXPECT_LE(m.size(), 12u);
  EXPECT_TRUE(respects_capacities(edges, m, 30, caps));
}

TEST(BMatching, OptimalEqualsHungarianOverDuplicatedStations) {
  // Station g split into caps[g] unit stations, solved one-to-one and
  // mapped back to the original edges: the same assignment, index for
  // index, as optimal_matching's own slot columns.
  util::Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    const auto sats = static_cast<int>(rng.uniform_int(1, 10));
    const auto stations = static_cast<int>(rng.uniform_int(1, 5));
    const auto edges = tie_heavy_graph(rng, sats, stations);
    std::vector<int> caps(static_cast<std::size_t>(stations));
    for (auto& c : caps) c = static_cast<int>(rng.uniform_int(0, 3));
    std::vector<int> first_slot(caps.size() + 1, 0);
    for (std::size_t g = 0; g < caps.size(); ++g) {
      first_slot[g + 1] = first_slot[g] + caps[g];
    }
    std::vector<Edge> split;
    std::vector<int> original;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (int k = 0; k < caps[edges[i].station]; ++k) {
        split.push_back(Edge{edges[i].sat, first_slot[edges[i].station] + k,
                             edges[i].weight});
        original.push_back(static_cast<int>(i));
      }
    }
    Matching expected;
    const std::vector<int> unit(static_cast<std::size_t>(first_slot.back()), 1);
    for (int ei : optimal_matching(split, sats, unit)) {
      expected.push_back(original[ei]);
    }
    const Matching m = optimal_matching(edges, sats, caps);
    ASSERT_EQ(m, expected) << "trial " << trial;
    EXPECT_TRUE(respects_capacities(edges, m, sats, caps));
  }
}

TEST(BMatching, RejectsBadInputs) {
  const std::vector<Edge> edges{{0, 0, 1.0}};
  EXPECT_THROW(stable_matching(edges, 1, {-1}), std::invalid_argument);
  EXPECT_THROW(stable_matching(edges, 1, {}), std::invalid_argument);
  EXPECT_THROW(greedy_matching(edges, 1, {-2}), std::invalid_argument);
  EXPECT_THROW(optimal_matching(edges, 1, {-2}), std::invalid_argument);
  EXPECT_THROW(is_stable(edges, {}, 1, {-2}),
               std::invalid_argument);
}

TEST(BMatching, EmptyGraphEmptyMatching) {
  EXPECT_TRUE(stable_matching({}, 4, {2, 2}).empty());
  EXPECT_TRUE(greedy_matching({}, 4, {2, 2}).empty());
  EXPECT_TRUE(optimal_matching({}, 4, {2, 2}).empty());
  EXPECT_TRUE(is_stable({}, {}, 4, {2, 2}));
}

}  // namespace
}  // namespace dgs::core
