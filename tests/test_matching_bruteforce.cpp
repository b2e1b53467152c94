// Exhaustive cross-validation of the Hungarian optimal matcher against
// brute-force enumeration on small random graphs, and of the stable
// matcher against the deferred-acceptance definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

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

/// Brute force: maximum-weight matching by enumerating all station
/// permutations (stations <= 8).
double brute_force_max_weight(const std::vector<Edge>& edges, int sats,
                              int stations) {
  // Weight lookup.
  std::vector<std::vector<double>> w(sats, std::vector<double>(stations, 0.0));
  for (const Edge& e : edges) {
    w[e.sat][e.station] = std::max(w[e.sat][e.station], e.weight);
  }
  // Enumerate subsets of satellites mapped injectively to stations via
  // permutations of station indices over satellite choices; simpler:
  // recursive search over satellites.
  double best = 0.0;
  std::vector<char> used(stations, 0);
  auto rec = [&](auto&& self, int s, double acc) -> void {
    if (s == sats) {
      best = std::max(best, acc);
      return;
    }
    self(self, s + 1, acc);  // leave satellite s unmatched
    for (int g = 0; g < stations; ++g) {
      if (!used[g] && w[s][g] > 0.0) {
        used[g] = 1;
        self(self, s + 1, acc + w[s][g]);
        used[g] = 0;
      }
    }
  };
  rec(rec, 0, 0.0);
  return best;
}

TEST(MatchingBruteForce, HungarianIsExactlyOptimalOnSmallGraphs) {
  util::Rng rng(97);
  for (int trial = 0; trial < 200; ++trial) {
    const int sats = static_cast<int>(rng.uniform_int(1, 6));
    const int stations = static_cast<int>(rng.uniform_int(1, 6));
    const auto edges = random_graph(rng, sats, stations, 0.6);
    const double expected = brute_force_max_weight(edges, sats, stations);
    const double actual =
        matching_value(edges, optimal_matching(edges, sats, unit(stations)));
    EXPECT_NEAR(actual, expected, 1e-9)
        << "trial " << trial << " (" << sats << "x" << stations << ", "
        << edges.size() << " edges)";
  }
}

TEST(MatchingBruteForce, StableNeverExceedsOptimal) {
  util::Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const int sats = static_cast<int>(rng.uniform_int(1, 6));
    const int stations = static_cast<int>(rng.uniform_int(1, 6));
    const auto edges = random_graph(rng, sats, stations, 0.6);
    const double opt = brute_force_max_weight(edges, sats, stations);
    const double stable =
        matching_value(edges, stable_matching(edges, sats, unit(stations)));
    EXPECT_LE(stable, opt + 1e-9);
    // ...and is never worse than half the optimum (greedy/stable matchings
    // on weight-aligned preferences are 2-approximations).
    EXPECT_GE(stable, opt / 2.0 - 1e-9) << "trial " << trial;
  }
}

TEST(MatchingBruteForce, StableIsMaximal) {
  // A stable matching with aligned preferences is maximal: no positive
  // edge has both endpoints free.
  util::Rng rng(103);
  for (int trial = 0; trial < 100; ++trial) {
    const int sats = static_cast<int>(rng.uniform_int(1, 10));
    const int stations = static_cast<int>(rng.uniform_int(1, 10));
    const auto edges = random_graph(rng, sats, stations, 0.4);
    const Matching m = stable_matching(edges, sats, unit(stations));
    std::vector<char> sat_used(sats, 0), gs_used(stations, 0);
    for (int i : m) {
      sat_used[edges[i].sat] = 1;
      gs_used[edges[i].station] = 1;
    }
    for (const Edge& e : edges) {
      if (e.weight <= 0.0) continue;
      EXPECT_TRUE(sat_used[e.sat] || gs_used[e.station])
          << "unmatched positive edge " << e.sat << "-" << e.station;
    }
  }
}

}  // namespace
}  // namespace dgs::core
